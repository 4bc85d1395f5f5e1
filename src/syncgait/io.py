"""On-disk session files: one binary `.npy` matrix per stream.

Each file is one C-order little-endian float64 (n, width) matrix, written
by np.save with allow_pickle=False. An IMU file holds 7 columns: t, then
acc and gyro. A keypoint file holds 37: t, then u, v and confidence of each
joint in REQUIRED_JOINTS order. Values round-trip bit-exact. The files are
not text and no outside tool writes them; their format version lives in the
data directory's manifest (`cli.MANIFEST_FORMAT`). A reader accepts
only the header np.save writes for such a matrix, and checks its row count
against the file's size before it allocates the rows. Every malformed file
raises IoFailure naming its path.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .errors import IoFailure
from .series import REQUIRED_JOINTS, ImuSeries, KeypointSeries

_IMU_WIDTH = 7
_KEYPOINT_WIDTH = 1 + 3 * len(REQUIRED_JOINTS)
# the .npy version 1.0 magic and header length, then the header np.save
# writes for a C-order little-endian float64 (n, w) matrix
_HEADER = re.compile(rb"\x93NUMPY\x01\x00..\{'descr': '<f8', 'fortran_order': "
                     rb"False, 'shape': \((\d+), (\d+)\), \} *\n", re.DOTALL)


def _write_matrix(path: str | Path, data: np.ndarray) -> None:
    try:
        with open(path, "wb") as f:
            np.save(f, data.astype("<f8", copy=False), allow_pickle=False)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _read_series(path: str | Path, width: int, build):
    """`build(m)` of the (n, width) matrix m, n >= 1, that the file at
    `path` holds, its header and the series' own checks failing as
    IoFailure. The header is matched here, not by numpy's parser, which
    lets malformed headers escape as SyntaxError, TypeError or tokenize
    errors; its row count must fit the file's size before any row is read."""
    try:
        with open(path, "rb") as f:
            lead = f.read(10)
            header = _HEADER.fullmatch(
                lead + f.read(int.from_bytes(lead[8:], "little")))
            if header is None:
                raise ValueError("not the .npy header of a float64 matrix")
            n, w = map(int, header.groups())
            if not (n >= 1 and w == width and 8 * n * w
                    == os.fstat(f.fileno()).st_size - f.tell()):
                raise ValueError(f"need n >= 1 rows of {width} filling the "
                                 f"file's size, not shape ({n}, {w})")
            data = np.fromfile(f, "<f8", n * w).reshape(n, w)
        return build(data)
    except (OSError, ValueError) as exc:
        raise IoFailure(f"bad session file {path}: {exc}") from exc


def write_imu_npy(path: str | Path, imu: ImuSeries) -> None:
    _write_matrix(path, np.column_stack([imu.t, imu.acc, imu.gyro]))


def read_imu_npy(path: str | Path, sample_rate: float = 100.0) -> ImuSeries:
    return _read_series(path, _IMU_WIDTH, lambda m: ImuSeries(
        m[:, 0], m[:, 1:4], m[:, 4:7], sample_rate=sample_rate))


def write_keypoint_npy(path: str | Path, kp: KeypointSeries) -> None:
    joints = np.concatenate([kp.uv, kp.conf[:, :, None]], axis=2)
    _write_matrix(path, np.column_stack([kp.t, joints.reshape(len(kp), -1)]))


def read_keypoint_npy(path: str | Path,
                      frame_rate: float = 60.0) -> KeypointSeries:
    def build(m):
        joints = m[:, 1:].reshape(len(m), len(REQUIRED_JOINTS), 3)
        # copies, so t, uv and conf are C-contiguous as downstream
        # reductions read them
        return KeypointSeries(m[:, 0].copy(), joints[:, :, :2].copy(),
                              joints[:, :, 2].copy(), frame_rate)
    return _read_series(path, _KEYPOINT_WIDTH, build)


# the former names, by which the benchmark's traced run wraps these functions
read_imu_csv = read_imu_npy
write_imu_csv = write_imu_npy
read_keypoint_jsonl = read_keypoint_npy
write_keypoint_jsonl = write_keypoint_npy
