"""Video keypoint-trajectory calibration and the gait band.

The gait band (GAIT_BAND_LO to GAIT_BAND_HI, capped below a low rate's
Nyquist) and its zero-phase Butterworth band-pass, the energy band of a
given power spectrum, entropy-adaptive DCT smoothing, and the Kalman
pass over the phone's wrist (`mjckf_correct`): two scalar constant-velocity
recursions, one per pixel coordinate, from a gain table that every track at
one frame rate shares.

The band-pass keeps its filter state: each rate's Butterworth design and
its step-response initial state (`lfilter_zi`, Gustafsson 1996) are
solved once and cached read-only, and `adaptive_bandpass` runs the
forward-backward pass itself. It builds the same odd extension, starts
both `lfilter` passes from the same scaled state and cuts out the same
middle as `scipy.signal.filtfilt(b, a, x, axis=0)` at its default padding,
with the same array operations, so its output is that call's bit for bit;
it skips only filtfilt's per-call re-solve of the state and its checks.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from scipy.fft import dct, idct
from scipy.signal import butter, lfilter, lfilter_zi

from .errors import DegenerateSeries, InvalidBand, SeriesTooShort
from .series import Series1D

GAIT_BAND_LO = 0.3
GAIT_BAND_HI = 5.0
BAND_ENERGY_FRAC = 0.9    # spectral energy share the estimated band holds
BUTTER_ORDER = 4


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
    rate, GAIT_BAND_LO to min(GAIT_BAND_HI, 0.45 rate), and its step-
    response initial state zi = lfilter_zi(b, a); shared by every call:
    read-only. A rate too low to hold that band is InvalidBand."""
    f_hi = min(GAIT_BAND_HI, 0.45 * rate)
    if not GAIT_BAND_LO < f_hi:
        raise InvalidBand(f"no gait band below {f_hi} Hz at {rate} Hz")
    nyq = rate / 2
    b, a = butter(BUTTER_ORDER, [GAIT_BAND_LO / nyq, f_hi / nyq],
                  btype="band")
    design = (b, a, lfilter_zi(b, a))
    for c in design:
        c.flags.writeable = False
    return design


def adaptive_bandpass(s: Series1D) -> Series1D:
    """Zero-phase Butterworth gait band-pass (forward-backward) along axis 0
    of the (n,) or (n, k) values: all columns in one pass, each bit for bit
    what filtering it alone gives, and the whole bit for bit
    `filtfilt(b, a, values, axis=0)`: the odd extension by padlen at each
    end, a forward and a backward `lfilter` each started from zi times its
    first sample, and the middle cut back out. A series no longer than the
    edge padding is SeriesTooShort."""
    b, a, zi = _butter_band(s.rate)
    padlen = 3 * max(len(b), len(a))   # filtfilt's edge padding
    if len(s) <= padlen:
        raise SeriesTooShort(f"need > {padlen} samples")
    x = s.values
    ext = np.concatenate((2 * x[:1] - x[padlen:0:-1], x,
                          2 * x[-1:] - x[-2:-padlen - 2:-1]))
    zi = zi.reshape((-1,) + (1,) * (x.ndim - 1))
    y, _ = lfilter(b, a, ext, axis=0, zi=zi * ext[:1])
    y, _ = lfilter(b, a, y[::-1], axis=0, zi=zi * y[-1:])
    return Series1D(y[::-1][padlen:-padlen], s.t0, s.rate)


# --- the wrist's Kalman pass (MJCKF) ------------------------------------------

PROCESS_NOISE = 2.0        # px^2, velocity random walk per frame
MEASUREMENT_NOISE = 4.0    # px^2
# Longest gain table. At 979 of the integer frame rates from 5 to 1000 fps
# the table ends at its fixed point after 50-183 entries; at the other 17
# (12 fps among them) the covariance never repeats bit for bit.
GAIN_TABLE_MAX = 1024
# frame intervals whose fourth power is a finite normal float
_DT_RANGE = (sys.float_info.min ** 0.25, sys.float_info.max ** 0.25)


@functools.lru_cache(maxsize=4)
def _wrist_gains(dt: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The (position gains, velocity gains) of one pixel coordinate's
    constant-velocity Kalman filter after the update of each frame, starting
    from P0 = 25 I.

    The covariance recursion does not depend on the measurements, so every
    coordinate of every track at one frame interval shares it. The table
    ends at the first covariance that repeats its predecessor bit for bit,
    or after GAIN_TABLE_MAX entries; every later frame has the last entry.
    Shared by every call: read-only tuples of Python floats.
    """
    f = np.array([[1.0, dt], [0.0, 1.0]])
    # white-acceleration discretization; the acceleration PSD scales with
    # the cube of the frame rate so tracking stiffness is fps-independent
    q = np.array([[dt ** 4 / 4, dt ** 3 / 2],
                  [dt ** 3 / 2, dt ** 2]]) * (PROCESS_NOISE / dt ** 3)
    eye = np.eye(2)
    h = eye[:1]
    cov, gains, last = eye * 25.0, [], None
    for _ in range(GAIN_TABLE_MAX):
        s = h @ cov @ h.T + np.eye(1) * MEASUREMENT_NOISE
        k = cov @ h.T @ np.linalg.inv(s)
        cov = (eye - k @ h) @ cov
        gains.append(k[:, 0])
        if cov.tobytes() == last:
            break
        last = cov.tobytes()
        cov = f @ cov @ f.T + q
    gain_p, gain_v = np.array(gains).T.tolist()
    return tuple(gain_p), tuple(gain_v)


def _wrist_run(z_all: list[float], gain_p: tuple[float, ...],
               gain_v: tuple[float, ...], dt: float) -> list[float]:
    """One wrist coordinate's filtered positions from frame 0, as a scalar
    (position, velocity) recursion: the same sums as F @ x and
    K @ (z - H x), whose other terms are exact zeros. Past the end of the
    gain table its last entry holds."""
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


def mjckf_correct(wrist: np.ndarray, frame_rate: float) -> np.ndarray:
    """The calibrated (n, 2) pixel track of the phone's wrist: each
    coordinate's constant-velocity Kalman recursion from frame 0, every
    frame an update, with the frame interval's shared gain table.

    The name is the paper's multi-joint cooperative Kalman filter (MJCKF)
    stage, which this pass now stands for, as `orientation.ahrs_stream`
    names the attitude scan: frames the detector lost arrive bridged by
    `pipeline.calibrate_keypoints`' gap fill, not by the filter.
    """
    if np.ndim(wrist) != 2 or np.shape(wrist)[1] != 2:
        raise ValueError(f"need an (n, 2) wrist track, got {np.shape(wrist)}")
    if len(wrist) < 3:
        raise SeriesTooShort("need >= 3 frames")
    dt = 1.0 / frame_rate
    # the process noise takes dt ** 4 and PROCESS_NOISE / dt ** 3
    if not _DT_RANGE[0] < dt < _DT_RANGE[1]:
        raise DegenerateSeries(f"frame rate {frame_rate} Hz leaves the "
                               "Kalman noise terms outside the float range")
    gains = _wrist_gains(dt)
    return np.array([_wrist_run(z, *gains, dt)
                     for z in wrist.T.tolist()]).T
