"""Video keypoint-trajectory calibration and the gait band.

The gait band (GAIT_BAND_LO to GAIT_BAND_HI, capped below a low rate's
Nyquist) and its zero-phase Butterworth band-pass, the energy band of a
given power spectrum, entropy-adaptive DCT smoothing, and multi-joint
cooperative Kalman correction (MJCKF) for occlusion bridging. The MJCKF's
output is the wrist: a fully measured track runs the wrist's two scalar
recursions from the shared gain table, and a track with a gated frame (an
arm joint not measured) runs the whole chain, whose limb coupling alone
reads the elbow and shoulder.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from scipy.fft import dct, idct
from scipy.signal import butter, filtfilt

from .errors import DegenerateSeries, InvalidBand, SeriesTooShort
from .series import Series1D

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


def column_entropies(v: np.ndarray, bins: int) -> list[float]:
    """Shannon entropy (bits) of each column of the (n, k) `v`, each over
    its own fixed-bin histogram from its min to its max, in one pass.

    Bit for bit `np.histogram(column, bins, range=(min, max))` per column:
    the same `np.linspace` edges, the same uniform-bin index with its one-
    ULP edge corrections, and each column's entropy summed over its own
    non-empty bins (summing with the empty bins left in changes the
    pairwise-sum rounding). A constant column has entropy 0; a non-finite
    value elsewhere, or a range too narrow for `bins` distinct edges, is
    ValueError, as `np.histogram` raises.
    """
    n, k = v.shape
    out = [0.0] * k
    if n == 0:
        return out
    lo_all, hi_all = v.min(axis=0), v.max(axis=0)
    cols = np.flatnonzero(hi_all != lo_all)
    lo, hi, x = lo_all[cols], hi_all[cols], v[:, cols]
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("histogram range is not finite")
    edges = np.linspace(lo, hi, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        raise ValueError(f"too many bins ({bins}) for the data range")
    idx = (((x - lo) / (hi - lo)) * bins).astype(np.intp)
    idx[idx == bins] -= 1
    col = np.arange(len(cols))
    idx[x < edges[idx, col]] -= 1
    idx[(x >= edges[idx + 1, col]) & (idx != bins - 1)] += 1
    counts = np.bincount((idx + col * bins).ravel(),
                         minlength=len(cols) * bins).reshape(len(cols), bins)
    full = counts > 0
    p = counts[full] / n
    terms = p * np.log2(p)
    ends = np.cumsum(full.sum(axis=1)).tolist()
    for c, start, end in zip(cols.tolist(), [0] + ends, ends):
        out[c] = float(-terms[start:end].sum())
    return out


def histogram_entropy(values: np.ndarray, bins: int) -> float:
    """Shannon entropy (bits) of a fixed-bin histogram over min..max."""
    return column_entropies(np.asarray(values, dtype=float).reshape(-1, 1),
                            bins)[0]


def adct_cutoff(n: int, entropy_bits: float, cfg: AdctConfig) -> int:
    """Number of retained DCT coefficients, clamped to [1, n]."""
    k = math.floor(n * (cfg.f_base + cfg.alpha * entropy_bits / math.log2(n)))
    return max(1, min(n, k))


def adct_smooth(s: Series1D, cfg: AdctConfig = AdctConfig()) -> Series1D:
    """Entropy-adaptive DCT truncation smoothing of the (n,) or (n, k)
    values: each column keeps its own cutoff, and one DCT and one inverse
    run along axis 0, each column bit for bit what smoothing it alone
    gives. A column whose histogram `column_entropies` refuses (a non-
    finite value, or a range too narrow for `cfg.bins` distinct edges, such
    as a few subnormal steps) is DegenerateSeries."""
    n = len(s)
    if n < 4:
        raise SeriesTooShort("need >= 4 samples")
    v = s.values.reshape(n, -1)
    try:
        entropies = column_entropies(v, cfg.bins)
    except ValueError as exc:
        raise DegenerateSeries(str(exc)) from exc
    k = [adct_cutoff(n, h, cfg) for h in entropies]
    coeffs = dct(v, norm="ortho", axis=0)
    coeffs[np.arange(n)[:, None] >= k] = 0.0
    smooth = idct(coeffs, norm="ortho", axis=0)
    return Series1D(smooth.reshape(s.values.shape), s.t0, s.rate)


def estimate_band(power: np.ndarray, n: int,
                  rate: float) -> tuple[float, float]:
    """(f_lo, f_hi): the smallest contiguous non-DC interval of the one-sided
    power spectrum of an n-sample row at `rate` holding >= BAND_ENERGY_FRAC
    of its energy, clamped to the gait band."""
    if n < 64:
        raise SeriesTooShort("need >= 64 samples")
    power = power[1:]  # DC excluded
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)[1:]
    df = rate / n
    total = power.sum()
    if total <= 0:
        return GAIT_BAND_LO, GAIT_BAND_HI

    target = BAND_ENERGY_FRAC * float(total)
    # two-pointer scan for the minimal window with enough energy, on Python
    # floats: numpy-scalar arithmetic would slow every step of the loop
    p = power.tolist()
    best = (0, len(p) - 1)
    acc = 0.0
    lo = 0
    for hi in range(len(p)):
        acc += p[hi]
        while acc - p[lo] >= target:
            acc -= p[lo]
            lo += 1
        if acc >= target and hi - lo < best[1] - best[0]:
            best = (lo, hi)
    f_lo = max(freqs[best[0]] - df / 2, GAIT_BAND_LO)
    f_hi = min(freqs[best[1]] + df / 2, GAIT_BAND_HI)
    return (f_lo, f_hi) if f_lo < f_hi else (GAIT_BAND_LO, GAIT_BAND_HI)


@functools.lru_cache(maxsize=8)
def _butter_band(rate: float) -> tuple[np.ndarray, ...]:
    """The BUTTER_ORDER band-pass design (b, a) of the gait band at one
    rate, GAIT_BAND_LO to min(GAIT_BAND_HI, 0.45 rate); shared by every
    call: read-only. A rate too low to hold that band is InvalidBand."""
    f_hi = min(GAIT_BAND_HI, 0.45 * rate)
    if not GAIT_BAND_LO < f_hi:
        raise InvalidBand(f"no gait band below {f_hi} Hz at {rate} Hz")
    nyq = rate / 2
    design = butter(BUTTER_ORDER, [GAIT_BAND_LO / nyq, f_hi / nyq],
                    btype="band")
    for c in design:
        c.flags.writeable = False
    return design


def adaptive_bandpass(s: Series1D) -> Series1D:
    """Zero-phase Butterworth gait band-pass (forward-backward) along axis 0
    of the (n,) or (n, k) values: all columns in one pass, each bit for bit
    what filtering it alone gives. The filter is designed once per rate. A
    series no longer than the forward-backward edge padding is
    SeriesTooShort."""
    b, a = _butter_band(s.rate)
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
# frame intervals whose fourth power is a finite normal float
_DT_RANGE = (sys.float_info.min ** 0.25, sys.float_info.max ** 0.25)


@functools.lru_cache(maxsize=4)
def _wrist_gains(dt: float) -> tuple[tuple, bool]:
    """The wrist's (position gains, velocity gains) of u and of v after the
    update of each fully measured frame, starting from P0 = 25 I, and
    whether the table settled.

    With every joint measured, the covariance recursion does not depend on
    the measurements, so all streams at one frame interval share it, and
    each gain ties a position only to itself and its velocity. The table
    ends at the first covariance that repeats its predecessor bit for bit;
    every later frame has the last entry. A table GAIN_TABLE_MAX long never
    settled. Shared by every call: read-only tuples of Python floats.
    """
    nj = len(ARM_CHAIN)
    filt = _ChainFilter(np.zeros((nj, 2)), np.zeros(nj - 1), dt)
    all_measured = dict.fromkeys(range(nj), np.zeros(2))
    gains, last = [], None
    for _ in range(GAIN_TABLE_MAX):
        gains.append(filt.update_positions(all_measured)[:4, :2])
        if filt.P.tobytes() == last:
            break
        last = filt.P.tobytes()
        filt.predict()
    table = np.array(gains)
    return (tuple((tuple(table[:, k, k].tolist()),
                   tuple(table[:, 2 + k, k].tolist())) for k in range(2)),
            len(gains) < GAIN_TABLE_MAX)


def _wrist_run(z_all: list[float], gain_p: tuple[float, ...],
               gain_v: tuple[float, ...], dt: float) -> list[float]:
    """One wrist coordinate's positions over fully measured frames, from
    frame 0, as a scalar (position, velocity) recursion: the same sums as
    F @ x and K @ (z - H x), whose other terms are exact zeros. Past the
    end of the gain table its last entry holds."""
    p, v = z_all[0], 0.0       # the state starts at frame 0 at rest
    out = []
    for z, gp, gv in zip(z_all, chain(gain_p, repeat(gain_p[-1])),
                         chain(gain_v, repeat(gain_v[-1]))):
        e = z - p
        p += gp * e
        v += gv * e
        out.append(p)
        p += dt * v            # the next frame's prediction
    return out


def mjckf_correct(track: np.ndarray, measured: np.ndarray,
                  frame_rate: float) -> np.ndarray:
    """The calibrated (n, 2) wrist of the (n, 3, 2) ARM_CHAIN pixel track,
    by a cooperative Kalman pass; `measured` (n, 3) marks the detections to
    update on.

    With every joint measured the joints never couple, so a fully measured
    track runs only the wrist's two scalar recursions from the frame
    interval's shared gain table. Any other track (one with a gated frame,
    or at an interval whose table never settled) runs the whole chain frame
    by frame from frame 0: unmeasured joints are predicted only, bridging
    occlusions, and the limb-length coupling, which alone reads the elbow
    and shoulder, constrains the frames that miss a joint.
    """
    nj, shape = len(ARM_CHAIN), np.shape(track)
    if shape[1:] != (nj, 2) or np.shape(measured) != shape[:2]:
        raise ValueError(f"need an (n, {nj}, 2) track and an (n, {nj}) "
                         f"measured mask, got {shape} and "
                         f"{np.shape(measured)}")
    n = len(track)
    if n < 3:
        raise SeriesTooShort("need >= 3 frames")
    dt = 1.0 / frame_rate
    # the process noise takes dt ** 4 and PROCESS_NOISE / dt ** 3
    if not _DT_RANGE[0] < dt < _DT_RANGE[1]:
        raise DegenerateSeries(f"frame rate {frame_rate} Hz leaves the "
                               "Kalman noise terms outside the float range")
    gains, settled = _wrist_gains(dt)
    if settled and measured.all():
        return np.array([_wrist_run(z, *gain, dt) for z, gain
                         in zip(track[:, 0].T.tolist(), gains)]).T

    seg = track[:, 1:] - track[:, :-1]
    # the matmul form equals np.linalg.norm of each segment bit for bit
    limbs = np.sqrt((seg[..., None, :] @ seg[..., :, None])[..., 0, 0])
    filt = _ChainFilter(track[0], limbs[0], dt)
    wrist = np.empty((n, 2))
    for idx in range(n):
        if idx > 0:
            filt.predict()
        seen = {j: track[idx, j] for j in range(nj) if measured[idx, j]}
        filt.update_positions(seen)
        if len(seen) < nj:
            # limb-length coupling constrains only occluded frames;
            # fully measured frames need no cooperative correction
            filt.update_coupling()
        for j in range(nj - 1):
            if measured[idx, j] and measured[idx, j + 1]:
                filt.refresh_limb(j, limbs[idx, j])
        wrist[idx] = filt.x[:2]
    return wrist
