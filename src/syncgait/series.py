"""Core time-series containers and generic preprocessing.

IMU streams are 6-axis (accelerometer, gyroscope) in the phone frame.
Keypoint streams are columnar 2D joint positions in pixel coordinates
with per-joint confidences. Series1D is the uniform per-channel carrier used
by every downstream stage.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

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
    """Uniformly sampled 6-axis stream backed by (n,) / (n, 3) arrays. A
    magnetometer block may still be passed as `mag`: its shape is checked,
    so a rate in its slot is refused, and it is not stored."""

    t: np.ndarray
    acc: np.ndarray
    gyro: np.ndarray
    mag: InitVar[np.ndarray | None] = None
    sample_rate: float = 100.0

    def __post_init__(self, mag):
        self.t = np.asarray(self.t, dtype=float)
        self.acc = np.asarray(self.acc, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
        n = len(self.t)
        if (self.t.ndim != 1 or self.acc.shape != (n, 3) or self.gyro.shape
                != (n, 3) or mag is not None and np.shape(mag) != (n, 3)):
            raise ValueError("need t (n,) and acc, gyro, a given mag (n, 3)")
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


def groups(keys: list) -> dict:
    """The indices of each distinct key, keys in first-seen order."""
    return {k: [i for i, x in enumerate(keys) if x == k]
            for k in dict.fromkeys(keys)}


def by_shape(stage, blocks: list[np.ndarray], rates: list[float],
             *args) -> list[np.ndarray]:
    """`stage(Series1D(block, rate=rate), *args).values` of each (n,) or
    (n, k) block, one stage call per (n, rate) over its blocks' columns: for
    a column-wise stage, each a fresh array bit for bit its own call's."""
    out: list = [None] * len(blocks)
    for (n, rate), idx in groups(list(zip(map(len, blocks), rates))).items():
        cols = [blocks[i].reshape(n, -1) for i in idx]
        block = Series1D(np.concatenate(cols, axis=1), rate=rate)
        values, end = stage(block, *args).values, 0
        for i, c in zip(idx, cols):
            start, end = end, end + c.shape[1]
            out[i] = values[:, start:end].reshape(blocks[i].shape).copy()
    return out


# --- Daubechies db2 wavelet (4-tap, orthonormal, periodized) ---------------

_S3 = math.sqrt(3.0)
_DB2_LO = np.array([1 + _S3, 3 + _S3, 3 - _S3, 1 - _S3]) / (4 * math.sqrt(2.0))
_DB2_HI = np.array([_DB2_LO[3], -_DB2_LO[2], _DB2_LO[1], -_DB2_LO[0]])


def _dwt_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One db2 level along axis 0 of (n,) or (n, k) values, n even. The taps
    x[2j..2j+3] (periodized) fill one C-contiguous (n/2 * k, 4) operand of
    one 2-D product per filter: a 3-D (k, m, 4) @ (4,) form, einsum or a
    strided operand rounds differently from a column alone."""
    rows = np.empty((len(x) // 2, *x.shape[1:], 4))
    rows[..., 0], rows[..., 1] = x[0::2], x[1::2]
    rows[:-1, ..., 2], rows[:-1, ..., 3] = x[2::2], x[3::2]
    rows[-1, ..., 2], rows[-1, ..., 3] = x[0], x[1]
    flat = rows.reshape(-1, 4)
    return ((flat @ _DB2_LO).reshape(rows.shape[:-1]),
            (flat @ _DB2_HI).reshape(rows.shape[:-1]))


def _idwt_step(approx: np.ndarray, detail: np.ndarray) -> np.ndarray:
    """Transpose of _dwt_step: coefficient k spreads its 4 taps onto
    samples 2k..2k+3 (periodized), so each sample sums two taps."""
    t0, t1, t2, t3 = (approx * lo + detail * hi
                      for lo, hi in zip(_DB2_LO, _DB2_HI))
    out = np.empty((2 * len(approx), *approx.shape[1:]))
    out[2::2], out[0] = t0[1:] + t2[:-1], t0[0] + t2[-1]
    out[3::2], out[1] = t1[1:] + t3[:-1], t1[0] + t3[-1]
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
