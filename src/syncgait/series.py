"""Core time-series containers and generic preprocessing.

IMU streams are 9-axis (accelerometer, gyroscope, magnetometer) in the phone
frame; keypoint streams are named 2D joints in pixel coordinates. Series1D is
the uniform per-channel carrier used by every downstream stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSeries, SeriesTooShort

REQUIRED_JOINTS = (
    "shoulder_l", "shoulder_r",
    "elbow_l", "elbow_r",
    "wrist_l", "wrist_r",
    "hip_l", "hip_r",
    "knee_l", "knee_r",
    "ankle_l", "ankle_r",
)

# Confidence below this is treated as a missing detection downstream.
MISSING_CONF = 0.3


@dataclass(frozen=True)
class ImuSample:
    """One 9-axis sensor sample in the phone frame (SI units)."""

    t: float                 # seconds since session start
    a: np.ndarray            # accelerometer, m/s^2
    g: np.ndarray            # gyroscope, rad/s
    m: np.ndarray            # magnetometer, microtesla


@dataclass
class ImuSeries:
    """Uniformly sampled 9-axis stream backed by (n,) / (n, 3) arrays."""

    t: np.ndarray
    acc: np.ndarray
    gyro: np.ndarray
    mag: np.ndarray
    sample_rate: float = 100.0

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.acc = np.asarray(self.acc, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        self.mag = np.asarray(self.mag, dtype=float)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def samples(self) -> list[ImuSample]:
        return [ImuSample(float(self.t[i]), self.acc[i], self.gyro[i], self.mag[i])
                for i in range(len(self.t))]

    def channel(self, name: str) -> "Series1D":
        """Extract one axis ('ax'..'mz') as a Series1D at the nominal rate."""
        group = {"a": self.acc, "g": self.gyro, "m": self.mag}[name[0]]
        axis = "xyz".index(name[1])
        return Series1D(group[:, axis].copy(), t0=float(self.t[0]), rate=self.sample_rate)


@dataclass
class KeypointFrame:
    """One video frame of named 2D joints: name -> (u, v, confidence)."""

    t: float
    joints: dict[str, tuple[float, float, float]]

    def __post_init__(self):
        for name in REQUIRED_JOINTS:
            if name not in self.joints:
                self.joints[name] = (0.0, 0.0, 0.0)
        for name, (u, v, c) in self.joints.items():
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"confidence out of [0,1] for joint {name}")


@dataclass
class KeypointSeries:
    """Ordered keypoint frames at a nominal frame rate."""

    frames: list[KeypointFrame]
    frame_rate: float = 60.0

    def __post_init__(self):
        ts = [f.t for f in self.frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("frame timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frames)

    def joint_track(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (t, u, v, conf) arrays for one joint."""
        t = np.array([f.t for f in self.frames])
        u = np.array([f.joints[name][0] for f in self.frames])
        v = np.array([f.joints[name][1] for f in self.frames])
        c = np.array([f.joints[name][2] for f in self.frames])
        return t, u, v, c


@dataclass
class Series1D:
    """Uniformly sampled scalar channel."""

    values: np.ndarray
    t0: float = 0.0
    rate: float = 100.0
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.values)) / self.rate

    @property
    def duration(self) -> float:
        return max(len(self.values) - 1, 0) / self.rate


# --- Daubechies db2 wavelet (4-tap, orthonormal, periodized) ---------------

_S3 = math.sqrt(3.0)
_DB2_LO = np.array([1 + _S3, 3 + _S3, 3 - _S3, 1 - _S3]) / (4 * math.sqrt(2.0))
_DB2_HI = np.array([_DB2_LO[3], -_DB2_LO[2], _DB2_LO[1], -_DB2_LO[0]])


def _dwt_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(x)
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(4)[None, :]) % n
    win = x[idx]
    return win @ _DB2_LO, win @ _DB2_HI


def _idwt_step(approx: np.ndarray, detail: np.ndarray) -> np.ndarray:
    """Transpose of _dwt_step: coefficient k spreads its 4 taps onto
    samples 2k..2k+3 (periodized), so each sample sums two taps."""
    taps = approx[:, None] * _DB2_LO + detail[:, None] * _DB2_HI
    out = np.empty(2 * len(approx))
    out[0::2] = taps[:, 0] + np.roll(taps[:, 2], 1)
    out[1::2] = taps[:, 1] + np.roll(taps[:, 3], 1)
    return out


def wavelet_decompose(x: np.ndarray, levels: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Multilevel periodized db2 DWT; stops early if a level has odd length."""
    approx = x.astype(float)
    details: list[np.ndarray] = []
    for _ in range(levels):
        if len(approx) % 2 or len(approx) < 4:
            break
        approx, d = _dwt_step(approx)
        details.append(d)
    return approx, details


def wavelet_reconstruct(approx: np.ndarray, details: list[np.ndarray]) -> np.ndarray:
    out = approx
    for d in reversed(details):
        out = _idwt_step(out, d)
    return out


def wavelet_denoise(s: Series1D, levels: int = 4) -> Series1D:
    """Soft universal-threshold wavelet denoising (db2, periodized).

    The noise scale is estimated from the finest-scale detail coefficients
    via MAD / 0.6745; all detail levels are soft-thresholded by
    sigma * sqrt(2 ln n).
    """
    n = len(s)
    if n < 2 ** levels:
        raise SeriesTooShort(f"need >= {2 ** levels} samples, got {n}")
    approx, details = wavelet_decompose(s.values, levels)
    if not details:
        return Series1D(s.values.copy(), s.t0, s.rate)
    sigma = np.median(np.abs(details[0])) / 0.6745
    thr = sigma * math.sqrt(2.0 * math.log(max(n, 2)))
    shrunk = [np.sign(d) * np.maximum(np.abs(d) - thr, 0.0) for d in details]
    return Series1D(wavelet_reconstruct(approx, shrunk), s.t0, s.rate)


def normalize(s: Series1D, mode: str = "zscore") -> Series1D:
    """Map a channel to a common numerical range (zscore or minmax)."""
    if len(s) == 0:
        raise DegenerateSeries("empty series")
    v = s.values
    if mode == "zscore":
        std = v.std()
        if std <= 0:
            raise DegenerateSeries("zero variance")
        out = (v - v.mean()) / std
    elif mode == "minmax":
        lo, hi = v.min(), v.max()
        if hi <= lo:
            raise DegenerateSeries("constant series")
        out = (v - lo) / (hi - lo)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Series1D(out, s.t0, s.rate)


def normalize_or_flag(s: Series1D, mode: str = "zscore") -> Series1D:
    """normalize(), but degenerate input maps to a zero series with a flag."""
    try:
        return normalize(s, mode)
    except DegenerateSeries:
        return Series1D(np.zeros(len(s)), s.t0, s.rate, degenerate=True)


def resample(s: Series1D, target_rate: float) -> Series1D:
    """Linear-interpolation resampling onto the same time span."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if len(s) < 2:
        raise SeriesTooShort("need >= 2 samples to resample")
    if target_rate == s.rate:
        return Series1D(s.values.copy(), s.t0, s.rate)
    t_old = s.times
    n_new = int(math.floor((t_old[-1] - s.t0) * target_rate)) + 1
    t_new = s.t0 + np.arange(n_new) / target_rate
    return Series1D(np.interp(t_new, t_old, s.values), s.t0, target_rate)
