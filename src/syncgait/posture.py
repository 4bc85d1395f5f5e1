"""Video keypoint-trajectory calibration.

Adaptive spectral band estimation, zero-phase Butterworth band-pass,
entropy-adaptive DCT smoothing, and multi-joint cooperative Kalman
correction for occlusion bridging.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, idct
from scipy.signal import butter, filtfilt

from .errors import InvalidBand, SeriesTooShort
from .series import JOINT_INDEX, MISSING_CONF, KeypointSeries, Series1D

GAIT_BAND_LO = 0.3
GAIT_BAND_HI = 5.0
BAND_ENERGY_FRAC = 0.9    # spectral energy share the estimated band holds
BUTTER_ORDER = 4

# The calibrated arm: the phone rides on the right wrist. Joints run from the
# wrist up, the order of the cooperative Kalman chain.
ARM_CHAIN = ("wrist_r", "elbow_r", "shoulder_r")
PROCESS_NOISE = 2.0        # px^2, velocity random walk per frame
MEASUREMENT_NOISE = 4.0    # px^2
COUPLING_NOISE_FACTOR = 4.0
LIMB_ADAPT_RATE = 0.05     # per-frame weight of a measured limb length


@dataclass(frozen=True)
class SpectralBand:
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not 0 < self.f_lo < self.f_hi:
            raise InvalidBand(f"invalid band [{self.f_lo}, {self.f_hi}]")


@dataclass(frozen=True)
class AdctConfig:
    f_base: float = 0.1
    alpha: float = 0.2
    bins: int = 32

    def __post_init__(self):
        if not 0 < self.f_base < 1:
            raise ValueError("f_base must lie in (0,1)")
        if self.alpha < 0 or self.f_base + self.alpha > 1:
            raise ValueError("need alpha >= 0 and f_base + alpha <= 1")
        if self.bins < 1:
            raise ValueError("bins must be positive")


def histogram_entropy(values: np.ndarray, bins: int) -> float:
    """Shannon entropy (bits) of a fixed-bin histogram over min..max."""
    v = np.asarray(values, dtype=float)
    if v.size == 0 or v.max() == v.min():
        return 0.0
    counts, _ = np.histogram(v, bins=bins, range=(v.min(), v.max()))
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def adct_cutoff(n: int, entropy_bits: float, cfg: AdctConfig) -> int:
    """Number of retained DCT coefficients, clamped to [1, n]."""
    k = math.floor(n * (cfg.f_base + cfg.alpha * entropy_bits / math.log2(n)))
    return max(1, min(n, k))


def adct_smooth(s: Series1D, cfg: AdctConfig = AdctConfig()) -> Series1D:
    """Entropy-adaptive DCT truncation smoothing."""
    n = len(s)
    if n < 4:
        raise SeriesTooShort("need >= 4 samples")
    h = histogram_entropy(s.values, cfg.bins)
    k = adct_cutoff(n, h, cfg)
    coeffs = dct(s.values, norm="ortho")
    coeffs[k:] = 0.0
    return Series1D(idct(coeffs, norm="ortho"), s.t0, s.rate)


def estimate_band(s: Series1D) -> SpectralBand:
    """Smallest contiguous non-DC FFT interval holding >= BAND_ENERGY_FRAC of
    the spectral energy, clamped to the plausible gait range."""
    n = len(s)
    if n < 64:
        raise SeriesTooShort("need >= 64 samples")
    spectrum = np.abs(np.fft.rfft(s.values - s.values.mean())) ** 2
    power = spectrum[1:]  # DC excluded
    freqs = np.fft.rfftfreq(n, d=1.0 / s.rate)[1:]
    df = s.rate / n
    total = power.sum()
    if total <= 0:
        return SpectralBand(GAIT_BAND_LO, GAIT_BAND_HI)

    target = BAND_ENERGY_FRAC * total
    # two-pointer scan for the minimal window with enough energy
    best = (0, len(power) - 1)
    acc = 0.0
    lo = 0
    for hi in range(len(power)):
        acc += power[hi]
        while acc - power[lo] >= target:
            acc -= power[lo]
            lo += 1
        if acc >= target and hi - lo < best[1] - best[0]:
            best = (lo, hi)
    f_lo = max(freqs[best[0]] - df / 2, GAIT_BAND_LO)
    f_hi = min(freqs[best[1]] + df / 2, GAIT_BAND_HI)
    if f_lo >= f_hi:
        return SpectralBand(GAIT_BAND_LO, GAIT_BAND_HI)
    return SpectralBand(f_lo, f_hi)


@functools.lru_cache(maxsize=8)
def _butter_band(band: SpectralBand, rate: float) -> tuple[np.ndarray, ...]:
    """The BUTTER_ORDER band-pass design (b, a) of one band at one rate;
    shared by every call: read-only."""
    nyq = rate / 2
    design = butter(BUTTER_ORDER, [band.f_lo / nyq, band.f_hi / nyq],
                    btype="band")
    for c in design:
        c.flags.writeable = False
    return design


def adaptive_bandpass(s: Series1D, band: SpectralBand) -> Series1D:
    """Zero-phase Butterworth band-pass (forward-backward) along axis 0 of
    the (n,) or (n, k) values: all columns in one pass, each bit for bit
    what filtering it alone gives. The filter is designed once per (band,
    rate). A series no longer than the forward-backward edge padding is
    SeriesTooShort."""
    nyq = s.rate / 2
    if not 0 < band.f_lo < band.f_hi < nyq:
        raise InvalidBand(f"band [{band.f_lo}, {band.f_hi}] vs Nyquist {nyq}")
    b, a = _butter_band(band, s.rate)
    padlen = 3 * max(len(b), len(a))   # filtfilt's edge padding
    if len(s) <= padlen:
        raise SeriesTooShort(f"need > {padlen} samples")
    return Series1D(filtfilt(b, a, s.values, axis=0), s.t0, s.rate)


# --- multi-joint cooperative Kalman filtering --------------------------------


class _ChainFilter:
    """Constant-velocity EKF over one joint chain with inter-joint distance
    pseudo-measurements as the cooperative coupling."""

    def __init__(self, positions: np.ndarray, limb: np.ndarray, dt: float):
        self.nj = len(positions)
        self.dim = 4 * self.nj
        self.x = np.zeros(self.dim)
        for j, (u, v) in enumerate(positions):
            self.x[4 * j:4 * j + 2] = (u, v)
        self.eye = np.eye(self.dim)
        self.P = self.eye * 25.0
        f = np.array([[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]],
                     dtype=float)
        self.F = np.kron(np.eye(self.nj), f)
        # white-acceleration discretization; the acceleration PSD scales with
        # the cube of the frame rate so tracking stiffness is fps-independent
        qa = PROCESS_NOISE / dt ** 3
        qb = np.array([[dt ** 4 / 4, 0, dt ** 3 / 2, 0],
                       [0, dt ** 4 / 4, 0, dt ** 3 / 2],
                       [dt ** 3 / 2, 0, dt ** 2, 0],
                       [0, dt ** 3 / 2, 0, dt ** 2]]) * qa
        self.Q = np.kron(np.eye(self.nj), qb)
        self.limb = limb.copy()

    def pos(self, j: int) -> np.ndarray:
        return self.x[4 * j:4 * j + 2]

    def predict(self):
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.Q

    def update_positions(self, measured: dict[int, np.ndarray]) -> np.ndarray | None:
        """Update on the measured joints' positions; returns the gain."""
        if not measured:
            return None
        rows = [4 * j + k for j in measured for k in range(2)]
        h = self.eye[rows]
        z = np.concatenate(list(measured.values()))
        r = np.eye(len(z)) * MEASUREMENT_NOISE
        return self._kalman_update(h, z - h @ self.x, r)

    def update_coupling(self):
        """EKF update on inter-joint distances toward the limb-length estimate."""
        for j in range(self.nj - 1):
            d = self.pos(j + 1) - self.pos(j)
            dist = np.linalg.norm(d)
            if dist < 1e-9:
                continue
            grad = d / dist
            h = np.zeros((1, self.dim))
            h[0, 4 * j:4 * j + 2] = -grad
            h[0, 4 * (j + 1):4 * (j + 1) + 2] = grad
            r = np.array([[MEASUREMENT_NOISE * COUPLING_NOISE_FACTOR]])
            self._kalman_update(h, np.array([self.limb[j] - dist]), r)

    def refresh_limb(self, j: int, dist: float):
        self.limb[j] = ((1 - LIMB_ADAPT_RATE) * self.limb[j]
                        + LIMB_ADAPT_RATE * dist)

    def _kalman_update(self, h: np.ndarray, innov: np.ndarray,
                       r: np.ndarray) -> np.ndarray:
        s = h @ self.P @ h.T + r
        k = self.P @ h.T @ np.linalg.inv(s)
        self.x = self.x + k @ innov
        self.P = (self.eye - k @ h) @ self.P
        return k


# Longest gain table; at every frame rate from 5 to 1000 fps the table ends
# at its fixed point after 50-180 entries.
GAIN_TABLE_MAX = 1024


@functools.lru_cache(maxsize=4)
def _measured_gains(dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Gain K (m, 12, 6) and covariance P (m, 12, 12) after the update of
    each fully measured frame, starting from P0 = 25 I.

    With every joint measured, the covariance recursion does not depend on
    the measurements, so all streams at one frame interval share it. The
    table ends at the first covariance that repeats its predecessor bit for
    bit; every later frame has the last entry. A table GAIN_TABLE_MAX long
    never reached that fixed point. The arrays are shared: read-only.
    """
    nj = len(ARM_CHAIN)
    filt = _ChainFilter(np.zeros((nj, 2)), np.zeros(nj - 1), dt)
    all_measured = dict.fromkeys(range(nj), np.zeros(2))
    gains, covs = [], []
    for idx in range(GAIN_TABLE_MAX):
        if idx > 0:
            filt.predict()
        gains.append(filt.update_positions(all_measured))
        covs.append(filt.P)
        if idx > 0 and covs[-1].tobytes() == covs[-2].tobytes():
            break
    table = np.stack(gains), np.stack(covs)
    for a in table:
        a.flags.writeable = False
    return table


def mjckf_correct(kp: KeypointSeries) -> KeypointSeries:
    """Correct the ARM_CHAIN joints with a cooperative Kalman pass.

    Low-confidence measurements are skipped (predict-only), bridging
    occlusions; bridged frames are emitted with confidence = MISSING_CONF.
    The arms are independent filters; the other joints pass through
    unchanged.
    """
    n = len(kp)
    if n < 3:
        raise SeriesTooShort("need >= 3 frames")
    cols = [JOINT_INDEX[name] for name in ARM_CHAIN]
    track = kp.uv[:, cols]
    conf = kp.conf[:, cols]
    ok = conf >= MISSING_CONF
    seg = track[:, 1:] - track[:, :-1]
    # the matmul form equals np.linalg.norm of each segment bit for bit
    limbs = np.sqrt((seg[..., None, :] @ seg[..., :, None])[..., 0, 0])
    dt = 1.0 / kp.frame_rate
    filt = _ChainFilter(track[0], limbs[0], dt)
    states = np.empty((n, filt.dim))

    # The fully measured prefix needs only the state update: its gains are
    # the frame interval's shared table (the same products as the full
    # update, with H x = x[rows]).
    gains, covs = _measured_gains(dt)
    gated = ~ok.all(axis=1)
    head = int(gated.argmax()) if gated.any() else n
    if len(gains) == GAIN_TABLE_MAX:   # never settled: the full update past it
        head = min(head, len(gains))
    rows = np.array([4 * j + k for j in range(filt.nj) for k in range(2)])
    z = track.reshape(n, -1)
    x = filt.x
    for idx in range(head):
        if idx > 0:
            x = filt.F @ x
        x = x + gains[min(idx, len(gains) - 1)] @ (z[idx] - x[rows])
        states[idx] = x
    filt.x = x
    if head > 0:
        filt.P = covs[min(head, len(covs)) - 1]
    if head < n:
        # the limb lengths steer only the coupling of gated frames
        for idx in range(head):
            for j in range(filt.nj - 1):
                filt.refresh_limb(j, limbs[idx, j])

    for idx in range(head, n):
        if idx > 0:
            filt.predict()
        measured = {j: track[idx, j] for j in range(filt.nj) if ok[idx, j]}
        filt.update_positions(measured)
        if len(measured) < filt.nj:
            # limb-length coupling constrains only occluded frames;
            # fully measured frames need no cooperative correction
            filt.update_coupling()
        for j in range(filt.nj - 1):
            if ok[idx, j] and ok[idx, j + 1]:
                filt.refresh_limb(j, limbs[idx, j])
        states[idx] = filt.x
    uv = kp.uv.copy()
    uv[:, cols] = states.reshape(n, filt.nj, 4)[:, :, :2]
    out_conf = kp.conf.copy()
    out_conf[:, cols] = np.maximum(conf, MISSING_CONF)
    return KeypointSeries(kp.t, uv, out_conf, kp.frame_rate)
