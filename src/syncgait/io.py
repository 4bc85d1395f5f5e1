"""On-disk formats: versioned IMU CSV and keypoint JSONL.

Both formats carry a leading "#gaitsync-v1" comment line. Every malformed
file raises IoFailure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import IoFailure
from .series import JOINT_INDEX, REQUIRED_JOINTS, ImuSeries, KeypointSeries

FORMAT_TAG = "#gaitsync-v1"
IMU_COLUMNS = "t,ax,ay,az,gx,gy,gz,mx,my,mz"


def write_imu_csv(path: str | Path, imu: ImuSeries) -> None:
    lines = [FORMAT_TAG, IMU_COLUMNS]
    for i in range(len(imu)):
        row = [imu.t[i], *imu.acc[i], *imu.gyro[i], *imu.mag[i]]
        lines.append(",".join(f"{x:.9g}" for x in row))
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
    rows = [ln.split(",") for ln in lines[1:] if ln.strip()]
    if not rows:
        raise IoFailure(f"no samples in {path}")
    width = len(IMU_COLUMNS.split(","))
    if any(len(row) != width for row in rows):
        raise IoFailure(f"rows of {path} must hold {width} fields")
    try:
        data = np.array([[float(x) for x in row] for row in rows])
        return ImuSeries(t=data[:, 0], acc=data[:, 1:4], gyro=data[:, 4:7],
                         mag=data[:, 7:10], sample_rate=sample_rate)
    except ValueError as exc:
        raise IoFailure(f"bad samples in {path}: {exc}") from exc


def write_keypoint_jsonl(path: str | Path, kp: KeypointSeries) -> None:
    lines = [FORMAT_TAG]
    for t, uv, conf in zip(kp.t.tolist(), kp.uv.tolist(), kp.conf.tolist()):
        rec = {"t": t, "joints": {n: [u, v, c] for n, (u, v), c
                                  in zip(REQUIRED_JOINTS, uv, conf)}}
        lines.append(json.dumps(rec, sort_keys=True))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_keypoint_jsonl(path: str | Path, frame_rate: float = 60.0) -> KeypointSeries:
    """One JSON object per frame, {"t": s, "joints": {name: [u, v, conf]}};
    a joint missing from a frame is read as undetected (confidence 0)."""
    t, uv, conf = [], [], []
    for k, ln in enumerate(_read_lines(path)):
        if not ln.strip():
            continue
        frame_uv = [(0.0, 0.0)] * len(REQUIRED_JOINTS)
        frame_conf = [0.0] * len(REQUIRED_JOINTS)
        try:
            rec = json.loads(ln)
            for name, (u, v, c) in rec["joints"].items():
                frame_uv[JOINT_INDEX[name]] = (float(u), float(v))
                frame_conf[JOINT_INDEX[name]] = float(c)
            t.append(float(rec["t"]))
        except (ValueError, TypeError, KeyError, AttributeError,
                OverflowError, RecursionError) as exc:
            raise IoFailure(f"bad frame on line {k + 2} of {path}: "
                            f"{exc!r}") from exc
        uv.append(frame_uv)
        conf.append(frame_conf)
    if not t:
        raise IoFailure(f"no frames in {path}")
    try:
        return KeypointSeries(np.array(t), np.array(uv), np.array(conf),
                              frame_rate=frame_rate)
    except ValueError as exc:
        raise IoFailure(f"bad frames in {path}: {exc}") from exc
