"""Video keypoint-trajectory calibration.

Adaptive spectral band estimation, zero-phase Butterworth band-pass,
entropy-adaptive DCT smoothing, and multi-joint cooperative Kalman
correction for occlusion bridging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct, idct
from scipy.signal import butter, filtfilt

from .errors import InvalidBand, SeriesTooShort, UnknownJoint
from .series import JOINT_INDEX, KeypointSeries, Series1D

GAIT_BAND_LO = 0.3
GAIT_BAND_HI = 5.0


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


@dataclass
class MjckfConfig:
    joint_chain: tuple[str, ...] = ("wrist", "elbow", "shoulder")
    process_noise: float = 2.0      # px^2, velocity random walk per frame
    measurement_noise: float = 4.0  # px^2
    conf_gate: float = 0.3
    coupling_noise_factor: float = 4.0

    def __post_init__(self):
        if self.process_noise <= 0 or self.measurement_noise <= 0:
            raise ValueError("noise variances must be positive")
        if not 0 <= self.conf_gate <= 1:
            raise ValueError("conf_gate must lie in [0,1]")


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


def estimate_band(s: Series1D, energy_frac: float = 0.9) -> SpectralBand:
    """Smallest contiguous non-DC FFT interval holding >= energy_frac of the
    spectral energy, clamped to the plausible gait range."""
    n = len(s)
    if n < 64:
        raise SeriesTooShort("need >= 64 samples")
    if not 0 < energy_frac < 1:
        raise ValueError("energy_frac must lie in (0,1)")
    spectrum = np.abs(np.fft.rfft(s.values - s.values.mean())) ** 2
    power = spectrum[1:]  # DC excluded
    freqs = np.fft.rfftfreq(n, d=1.0 / s.rate)[1:]
    df = s.rate / n
    total = power.sum()
    if total <= 0:
        return SpectralBand(GAIT_BAND_LO, GAIT_BAND_HI)

    target = energy_frac * total
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


def adaptive_bandpass(s: Series1D, band: SpectralBand, order: int = 4) -> Series1D:
    """Zero-phase Butterworth band-pass (forward-backward)."""
    nyq = s.rate / 2
    if not 0 < band.f_lo < band.f_hi < nyq:
        raise InvalidBand(f"band [{band.f_lo}, {band.f_hi}] vs Nyquist {nyq}")
    if not 2 <= order <= 8:
        raise ValueError("order must lie in [2, 8]")
    b, a = butter(order, [band.f_lo / nyq, band.f_hi / nyq], btype="band")
    return Series1D(filtfilt(b, a, s.values), s.t0, s.rate)


# --- multi-joint cooperative Kalman filtering --------------------------------


def _chain_names(chain: tuple[str, ...], side: str) -> list[str]:
    return [f"{j}_{side}" for j in chain]


class _ChainFilter:
    """Constant-velocity EKF over one joint chain with inter-joint distance
    pseudo-measurements as the cooperative coupling."""

    def __init__(self, positions: np.ndarray, cfg: MjckfConfig, dt: float):
        self.cfg = cfg
        self.nj = len(positions)
        self.dim = 4 * self.nj
        self.x = np.zeros(self.dim)
        for j, (u, v) in enumerate(positions):
            self.x[4 * j:4 * j + 2] = (u, v)
        self.P = np.eye(self.dim) * 25.0
        f = np.array([[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]],
                     dtype=float)
        self.F = np.kron(np.eye(self.nj), f)
        # white-acceleration discretization; the acceleration PSD scales with
        # the cube of the frame rate so tracking stiffness is fps-independent
        qa = cfg.process_noise / dt ** 3
        qb = np.array([[dt ** 4 / 4, 0, dt ** 3 / 2, 0],
                       [0, dt ** 4 / 4, 0, dt ** 3 / 2],
                       [dt ** 3 / 2, 0, dt ** 2, 0],
                       [0, dt ** 3 / 2, 0, dt ** 2]]) * qa
        self.Q = np.kron(np.eye(self.nj), qb)
        self.limb = np.array([np.linalg.norm(positions[j + 1] - positions[j])
                              for j in range(self.nj - 1)])

    def pos(self, j: int) -> np.ndarray:
        return self.x[4 * j:4 * j + 2]

    def predict(self):
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.Q

    def update_positions(self, measured: dict[int, np.ndarray]):
        if not measured:
            return
        rows = []
        z = []
        for j, uv in measured.items():
            for k in range(2):
                row = np.zeros(self.dim)
                row[4 * j + k] = 1.0
                rows.append(row)
                z.append(uv[k])
        h = np.array(rows)
        z = np.array(z)
        r = np.eye(len(z)) * self.cfg.measurement_noise
        self._kalman_update(h, z - h @ self.x, r)

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
            r = np.array([[self.cfg.measurement_noise * self.cfg.coupling_noise_factor]])
            self._kalman_update(h, np.array([self.limb[j] - dist]), r)

    def refresh_limb(self, j: int, dist: float, alpha: float = 0.05):
        self.limb[j] = (1 - alpha) * self.limb[j] + alpha * dist

    def _kalman_update(self, h: np.ndarray, innov: np.ndarray, r: np.ndarray):
        s = h @ self.P @ h.T + r
        k = self.P @ h.T @ np.linalg.inv(s)
        self.x = self.x + k @ innov
        self.P = (np.eye(self.dim) - k @ h) @ self.P


def mjckf_correct(kp: KeypointSeries, cfg: MjckfConfig = MjckfConfig(),
                  side: str = "r") -> KeypointSeries:
    """Correct one arm's chain joints with a cooperative Kalman pass.

    Low-confidence measurements are skipped (predict-only), bridging
    occlusions; bridged frames are emitted with confidence = conf_gate.
    The arms are independent filters; the other arm's joints pass through
    unchanged.
    """
    if len(kp) < 3:
        raise SeriesTooShort("need >= 3 frames")
    names = _chain_names(cfg.joint_chain, side)
    for name in names:
        if name not in JOINT_INDEX:
            raise UnknownJoint(name)
    cols = [JOINT_INDEX[n] for n in names]
    track = kp.uv[:, cols]
    conf = kp.conf[:, cols]

    filtered = np.empty_like(track)
    filt = _ChainFilter(track[0], cfg, 1.0 / kp.frame_rate)
    for idx in range(len(kp)):
        if idx > 0:
            filt.predict()
        measured = {j: track[idx, j] for j in range(filt.nj)
                    if conf[idx, j] >= cfg.conf_gate}
        filt.update_positions(measured)
        if len(measured) < filt.nj:
            # limb-length coupling constrains only occluded frames;
            # fully measured frames need no cooperative correction
            filt.update_coupling()
        for j in range(filt.nj - 1):
            if j in measured and j + 1 in measured:
                filt.refresh_limb(j, float(np.linalg.norm(measured[j + 1] - measured[j])))
        for j in range(filt.nj):
            filtered[idx, j] = filt.pos(j)
    uv = kp.uv.copy()
    uv[:, cols] = filtered
    out_conf = kp.conf.copy()
    out_conf[:, cols] = np.maximum(conf, cfg.conf_gate)
    return KeypointSeries(kp.t, uv, out_conf, kp.frame_rate)
