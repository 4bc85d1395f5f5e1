"""On-disk formats: versioned IMU CSV and keypoint JSONL.

Both formats carry a leading "#gaitsync-v1" comment line. Every malformed
file raises IoFailure. Each file is parsed into one array: the IMU rows by
one `np.loadtxt`, so each field must be a plain ASCII decimal number, and
the keypoint frames by one `json.loads` per line into one flat float list.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import IoFailure
from .series import JOINT_INDEX, REQUIRED_JOINTS, ImuSeries, KeypointSeries

FORMAT_TAG = "#gaitsync-v1"
IMU_COLUMNS = "t,ax,ay,az,gx,gy,gz,mx,my,mz"
_IMU_WIDTH = len(IMU_COLUMNS.split(","))
_IMU_ROW = ",".join(["%.9g"] * _IMU_WIDTH)
_encode_frame = json.JSONEncoder(sort_keys=True).encode


def write_imu_csv(path: str | Path, imu: ImuSeries) -> None:
    rows = np.column_stack([imu.t, imu.acc, imu.gyro, imu.mag]).tolist()
    lines = [FORMAT_TAG, IMU_COLUMNS, *(_IMU_ROW % tuple(r) for r in rows)]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _read_lines(path: str | Path) -> list[str]:
    """The lines of a text file after its format tag line."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(str(exc)) from exc
    if not lines or lines[0].strip() != FORMAT_TAG:
        raise IoFailure(f"missing {FORMAT_TAG} header in {path}")
    return lines[1:]


def read_imu_csv(path: str | Path, sample_rate: float = 100.0) -> ImuSeries:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != IMU_COLUMNS:
        raise IoFailure(f"missing {IMU_COLUMNS} header in {path}")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if not rows:
        raise IoFailure(f"no samples in {path}")
    try:
        # comments=None: a "#" inside a row is a bad field, not a comment
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != _IMU_WIDTH:
            raise ValueError(f"rows must hold {_IMU_WIDTH} fields")
        return ImuSeries(t=data[:, 0], acc=data[:, 1:4], gyro=data[:, 4:7],
                         mag=data[:, 7:10], sample_rate=sample_rate)
    except ValueError as exc:
        raise IoFailure(f"bad samples in {path}: {exc}") from exc


def write_keypoint_jsonl(path: str | Path, kp: KeypointSeries) -> None:
    lines = [FORMAT_TAG]
    for t, uv, conf in zip(kp.t.tolist(), kp.uv.tolist(), kp.conf.tolist()):
        rec = {"t": t, "joints": {n: [u, v, c] for n, (u, v), c
                                  in zip(REQUIRED_JOINTS, uv, conf)}}
        lines.append(_encode_frame(rec))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_keypoint_jsonl(path: str | Path, frame_rate: float = 60.0) -> KeypointSeries:
    """One JSON object per frame, {"t": s, "joints": {name: [u, v, conf]}};
    a joint missing from a frame is read as undetected (confidence 0)."""
    t, values = [], []
    blank = [0.0] * (3 * len(REQUIRED_JOINTS))
    for k, ln in enumerate(_read_lines(path)):
        if not ln.strip():
            continue
        frame = blank.copy()
        try:
            rec = json.loads(ln)
            for name, (u, v, c) in rec["joints"].items():
                j = 3 * JOINT_INDEX[name]
                frame[j] = float(u)
                frame[j + 1] = float(v)
                frame[j + 2] = float(c)
            t.append(float(rec["t"]))
        except (ValueError, TypeError, KeyError, AttributeError,
                OverflowError, RecursionError) as exc:
            raise IoFailure(f"bad frame on line {k + 2} of {path}: "
                            f"{exc!r}") from exc
        values.extend(frame)
    if not t:
        raise IoFailure(f"no frames in {path}")
    data = np.array(values).reshape(len(t), len(REQUIRED_JOINTS), 3)
    try:
        # copies, so uv and conf are C-contiguous as downstream reductions read
        return KeypointSeries(np.array(t), data[:, :, :2].copy(),
                              data[:, :, 2].copy(), frame_rate=frame_rate)
    except ValueError as exc:
        raise IoFailure(f"bad frames in {path}: {exc}") from exc
