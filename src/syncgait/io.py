"""On-disk formats: versioned IMU CSV and keypoint CSV.

Both files carry a leading "#gaitsync-v2" tag line and a column header, and
both are read by one parser: the rows by one `np.loadtxt`, so each field
must be a plain ASCII decimal number. A keypoint row holds the frame time,
then u, v and confidence of each joint in REQUIRED_JOINTS order; its values
are written by repr(), so they read back bit-exact. Every malformed file
raises IoFailure.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import IoFailure
from .series import REQUIRED_JOINTS, ImuSeries, KeypointSeries

FORMAT_TAG = "#gaitsync-v2"
IMU_COLUMNS = "t,ax,ay,az,gx,gy,gz,mx,my,mz"
KEYPOINT_COLUMNS = ",".join(["t", *(f"{name}_{field}"
                                    for name in REQUIRED_JOINTS
                                    for field in "uvc")])
_IMU_WIDTH = len(IMU_COLUMNS.split(","))
_KEYPOINT_WIDTH = len(KEYPOINT_COLUMNS.split(","))
_IMU_ROW = ",".join(["%.9g"] * _IMU_WIDTH)
_KEYPOINT_ROW = ",".join(["%r"] * _KEYPOINT_WIDTH)


def _write_table(path: str | Path, columns: str, row: str,
                 data: np.ndarray) -> None:
    lines = [FORMAT_TAG, columns, *(row % tuple(r) for r in data.tolist())]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _read_table(path: str | Path, columns: str, width: int) -> np.ndarray:
    """The (n, width) rows below the tag line and the `columns` header."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(str(exc)) from exc
    if not lines or lines[0].strip() != FORMAT_TAG:
        raise IoFailure(f"missing {FORMAT_TAG} header in {path}")
    if len(lines) < 2 or lines[1].strip() != columns:
        raise IoFailure(f"missing {columns} header in {path}")
    rows = [ln for ln in lines[2:] if ln.strip()]
    if not rows:
        raise IoFailure(f"no rows in {path}")
    try:
        # comments=None: a "#" inside a row is a bad field, not a comment
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != width:
            raise ValueError(f"rows must hold {width} fields")
    except ValueError as exc:
        raise IoFailure(f"bad rows in {path}: {exc}") from exc
    return data


def _series(path: str | Path, build, *args):
    """`build(*args)`, with the series' own checks failing as IoFailure."""
    try:
        return build(*args)
    except ValueError as exc:
        raise IoFailure(f"bad rows in {path}: {exc}") from exc


def write_imu_csv(path: str | Path, imu: ImuSeries) -> None:
    _write_table(path, IMU_COLUMNS, _IMU_ROW,
                 np.column_stack([imu.t, imu.acc, imu.gyro, imu.mag]))


def read_imu_csv(path: str | Path, sample_rate: float = 100.0) -> ImuSeries:
    data = _read_table(path, IMU_COLUMNS, _IMU_WIDTH)
    return _series(path, ImuSeries, data[:, 0], data[:, 1:4], data[:, 4:7],
                   data[:, 7:10], sample_rate)


def write_keypoint_csv(path: str | Path, kp: KeypointSeries) -> None:
    joints = np.concatenate([kp.uv, kp.conf[:, :, None]], axis=2)
    _write_table(path, KEYPOINT_COLUMNS, _KEYPOINT_ROW,
                 np.column_stack([kp.t, joints.reshape(len(kp), -1)]))


def read_keypoint_csv(path: str | Path,
                      frame_rate: float = 60.0) -> KeypointSeries:
    data = _read_table(path, KEYPOINT_COLUMNS, _KEYPOINT_WIDTH)
    joints = data[:, 1:].reshape(len(data), len(REQUIRED_JOINTS), 3)
    # copies, so t, uv and conf are C-contiguous as downstream reductions read
    return _series(path, KeypointSeries, data[:, 0].copy(),
                   joints[:, :, :2].copy(), joints[:, :, 2].copy(), frame_rate)


# the reader's former name, by which the benchmark's traced run wraps it
read_keypoint_jsonl = read_keypoint_csv
# the writer's former name, by which the benchmark's traced run wraps it
write_keypoint_jsonl = write_keypoint_csv
