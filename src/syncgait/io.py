"""On-disk formats: versioned IMU CSV, keypoint JSONL, gait-cycle binary.

Both text formats carry a leading "#gaitsync-v1" comment line.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import IoFailure
from .series import ImuSeries, KeypointFrame, KeypointSeries

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


def read_imu_csv(path: str | Path, sample_rate: float = 100.0) -> ImuSeries:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if not lines or lines[0].strip() != FORMAT_TAG:
        raise IoFailure(f"missing {FORMAT_TAG} header in {path}")
    rows = [ln.split(",") for ln in lines[2:] if ln.strip()]
    if not rows:
        raise IoFailure(f"no samples in {path}")
    width = len(IMU_COLUMNS.split(","))
    if any(len(row) != width for row in rows):
        raise IoFailure(f"rows of {path} must hold {width} fields")
    try:
        data = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise IoFailure(f"non-numeric field in {path}: {exc}") from exc
    return ImuSeries(t=data[:, 0], acc=data[:, 1:4], gyro=data[:, 4:7],
                     mag=data[:, 7:10], sample_rate=sample_rate)


def write_keypoint_jsonl(path: str | Path, kp: KeypointSeries) -> None:
    lines = [FORMAT_TAG]
    for frame in kp.frames:
        rec = {"t": frame.t,
               "joints": {name: [u, v, c] for name, (u, v, c) in sorted(frame.joints.items())}}
        lines.append(json.dumps(rec, sort_keys=True))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_keypoint_jsonl(path: str | Path, frame_rate: float = 60.0) -> KeypointSeries:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if not lines or lines[0].strip() != FORMAT_TAG:
        raise IoFailure(f"missing {FORMAT_TAG} header in {path}")
    frames = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        rec = json.loads(ln)
        joints = {name: (float(u), float(v), float(c))
                  for name, (u, v, c) in rec["joints"].items()}
        frames.append(KeypointFrame(t=float(rec["t"]), joints=joints))
    return KeypointSeries(frames=frames, frame_rate=frame_rate)


# --- gait-cycle binary record ----------------------------------------------
# header: u32 L, u32 channel_count, f64 t_start, f64 t_end; then channel-major
# little-endian f64 payload.

_CYCLE_HDR = struct.Struct("<IIdd")


def pack_cycle(channels: np.ndarray, t_start: float, t_end: float) -> bytes:
    channels = np.asarray(channels, dtype="<f8")
    n_ch, length = channels.shape
    return _CYCLE_HDR.pack(length, n_ch, t_start, t_end) + channels.tobytes()


def unpack_cycle(blob: bytes) -> tuple[np.ndarray, float, float]:
    length, n_ch, t_start, t_end = _CYCLE_HDR.unpack_from(blob)
    payload = np.frombuffer(blob, dtype="<f8", offset=_CYCLE_HDR.size,
                            count=n_ch * length)
    return payload.reshape(n_ch, length).copy(), t_start, t_end
