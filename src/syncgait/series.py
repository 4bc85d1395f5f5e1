"""Core time-series containers and generic preprocessing.

IMU streams are recorded 9-axis (accelerometer, gyroscope, magnetometer) in
the phone frame; the magnetometer is carried as recorded and no stage reads
it. Keypoint streams are columnar 2D joint positions in pixel coordinates
with per-joint confidences. Series1D is the uniform per-channel carrier used
by every downstream stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
JOINT_INDEX = {name: j for j, name in enumerate(REQUIRED_JOINTS)}

# Confidence below this is treated as a missing detection downstream.
MISSING_CONF = 0.3
DENOISE_LEVELS = 4   # wavelet levels of wavelet_denoise


@dataclass
class ImuSeries:
    """Uniformly sampled 9-axis stream backed by (n,) / (n, 3) arrays. `mag`
    is the recorded-data format's field, carried as recorded: the AHRS is
    6-axis and no stage reads it, so its shape is checked and its values,
    which may be non-finite, are not."""

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
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
        n = len(self.t)
        if self.t.ndim != 1 or any(a.shape != (n, 3)
                                   for a in (self.acc, self.gyro, self.mag)):
            raise ValueError("need t of shape (n,) and acc, gyro, mag of "
                             "shape (n, 3)")
        if not all(np.isfinite(a).all() for a in (self.t, self.acc, self.gyro)):
            raise ValueError("IMU samples must be finite")
        if not np.all(self.t[1:] > self.t[:-1]):   # np.diff can overflow
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class KeypointSeries:
    """Keypoint frames at a nominal frame rate, held by column: frame times
    t (n,), pixel positions uv (n, J, 2) and detection confidences conf
    (n, J), with joint j = JOINT_INDEX[name] in REQUIRED_JOINTS order.

    The arrays may be shared between series; copy one before writing to it.
    """

    t: np.ndarray
    uv: np.ndarray
    conf: np.ndarray
    frame_rate: float = 60.0

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.uv = np.asarray(self.uv, dtype=float)
        self.conf = np.asarray(self.conf, dtype=float)
        if not 0 < self.frame_rate < math.inf:
            raise ValueError("frame_rate must be positive and finite")
        n, nj = len(self.t), len(REQUIRED_JOINTS)
        if (self.t.ndim != 1 or self.uv.shape != (n, nj, 2)
                or self.conf.shape != (n, nj)):
            raise ValueError(f"need t (n,), uv (n, {nj}, 2) and conf "
                             f"(n, {nj}) for n frames")
        if not (np.isfinite(self.t).all() and np.isfinite(self.uv).all()):
            raise ValueError("frame times and joint positions must be finite")
        if not ((self.conf >= 0.0) & (self.conf <= 1.0)).all():
            raise ValueError("joint confidence out of [0,1]")
        if not np.all(self.t[1:] > self.t[:-1]):   # np.diff can overflow
            raise ValueError("frame timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class Series1D:
    """Uniformly sampled scalar channel; values (n,), or (n, k) for k
    channels on one grid. Three stages take (n, k) values and treat each
    column as a channel of its own in one array pass: wavelet_denoise,
    posture.adct_smooth and posture.adaptive_bandpass."""

    values: np.ndarray
    t0: float = 0.0
    rate: float = 100.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.values)) / self.rate


# --- Daubechies db2 wavelet (4-tap, orthonormal, periodized) ---------------

_S3 = math.sqrt(3.0)
_DB2_LO = np.array([1 + _S3, 3 + _S3, 3 - _S3, 1 - _S3]) / (4 * math.sqrt(2.0))
_DB2_HI = np.array([_DB2_LO[3], -_DB2_LO[2], _DB2_LO[1], -_DB2_LO[0]])


def _dwt_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One db2 level along axis 0 of (n,) or (n, k) values. The taps are
    gathered into 4-wide rows of one 2-D product: the 3-D (k, m, 4) @ (4,)
    form and einsum round differently from a column alone."""
    n = len(x)
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(4)[None, :]) % n
    win = np.moveaxis(x[idx], 1, -1)   # (n // 2, ..., 4)
    rows = win.reshape(-1, 4)
    return ((rows @ _DB2_LO).reshape(win.shape[:-1]),
            (rows @ _DB2_HI).reshape(win.shape[:-1]))


def _idwt_step(approx: np.ndarray, detail: np.ndarray) -> np.ndarray:
    """Transpose of _dwt_step: coefficient k spreads its 4 taps onto
    samples 2k..2k+3 (periodized), so each sample sums two taps."""
    taps = approx[..., None] * _DB2_LO + detail[..., None] * _DB2_HI
    out = np.empty((2 * len(approx), *approx.shape[1:]))
    out[0::2] = taps[..., 0] + np.roll(taps[..., 2], 1, axis=0)
    out[1::2] = taps[..., 1] + np.roll(taps[..., 3], 1, axis=0)
    return out


def wavelet_decompose(x: np.ndarray, levels: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Multilevel periodized db2 DWT along axis 0; stops early if a level
    has odd length."""
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


def wavelet_denoise(s: Series1D) -> Series1D:
    """Soft universal-threshold wavelet denoising (db2, periodized) of the
    (n,) or (n, k) values, each column bit for bit what denoising it alone
    gives.

    Each column's noise scale is estimated from its finest-scale detail
    coefficients via MAD / 0.6745; its detail levels are soft-thresholded
    by sigma * sqrt(2 ln n). The decomposition stops at the first level of
    odd length, before DENOISE_LEVELS: 800 and 1200 samples get 4 levels,
    500 get 2, 350 get 1, and an odd length such as 801 gets none and is
    returned undenoised.
    """
    n = len(s)
    if n < 2 ** DENOISE_LEVELS:
        raise SeriesTooShort(f"need >= {2 ** DENOISE_LEVELS} samples, got {n}")
    approx, details = wavelet_decompose(s.values, DENOISE_LEVELS)
    if not details:
        return Series1D(s.values.copy(), s.t0, s.rate)
    sigma = np.median(np.abs(details[0]), axis=0) / 0.6745
    thr = sigma * math.sqrt(2.0 * math.log(max(n, 2)))
    shrunk = [np.sign(d) * np.maximum(np.abs(d) - thr, 0.0) for d in details]
    return Series1D(wavelet_reconstruct(approx, shrunk), s.t0, s.rate)


def fill_gaps(t: np.ndarray, x: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """x (n,) or (n, ...) with each column linearly interpolated over t
    across the samples that are not valid; x itself when every sample or no
    sample is valid. Valid samples keep their values bit for bit."""
    if valid.all() or not valid.any():
        return x
    lost = ~valid
    out = x.copy()
    for col in np.ndindex(x.shape[1:]):
        out[(lost, *col)] = np.interp(t[lost], t[valid], x[(valid, *col)])
    return out


def require_squarable(name: str, *blocks: np.ndarray) -> None:
    """DegenerateSeries unless the summed squares of each block are finite,
    so that no norm, variance or energy downstream overflows."""
    for b in blocks:
        if b.size and np.abs(b).max() > math.sqrt(np.finfo(float).max / b.size):
            raise DegenerateSeries(f"{name} samples too large to square")


def normalize(s: Series1D) -> Series1D:
    """Z-score a channel: zero mean, unit variance."""
    if len(s) == 0:
        raise DegenerateSeries("empty series")
    v = s.values
    std = v.std()
    if std <= 0:
        raise DegenerateSeries("zero variance")
    return Series1D((v - v.mean()) / std, s.t0, s.rate)
