"""The IMU chain, gait segmentation and the 6-channel cycle representation.

A batch of streams runs the column-wise wavelet denoise once per (length,
rate) shape and the attitude scan once per length, then the rotation per
stream. Cycles are cut at prominent local minima of the world-frame
vertical acceleration, then each cycle's phone-frame (a_x, a_y, a_z, ω_x,
ω_y, ω_z) channels are interpolated to a fixed length. The channels read
no attitude, so a cycle does not depend on the walking direction's compass
heading. Cuts are sample indices; the cut instants are their grid times
t[0] + i / rate, so the chain reads no recorded timestamp after t[0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .errors import CycleTooShort, NoCyclesFound, SeriesTooShort
from .orientation import GRAVITY_WORLD, ahrs_streams, rotation_matrices
from .series import (ImuSeries, by_shape, require_squarable,
                     wavelet_denoise)

CYCLE_LENGTH = 150  # samples; 1.5 s at 100 Hz
MIN_PERIOD_S = 0.8  # cycle-period bounds
MAX_PERIOD_S = 2.5
PROMINENCE = 0.5    # cut-minimum prominence, fraction of signal std


@dataclass
class GaitCycle:
    channels: np.ndarray   # (6, L): a_x, a_y, a_z, ω_x, ω_y, ω_z (phone frame)
    t_start: float
    t_end: float

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=float)
        if self.channels.shape[0] != 6:
            raise ValueError("expected 6 channels")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")


@dataclass(frozen=True)
class ImuChain:
    """One IMU stream prepared once: the wavelet-denoised samples and the
    (n, 3) world-frame acceleration less gravity. The gait cycles read the
    phone-frame (a_x, a_y, a_z, ω_x, ω_y, ω_z) of `denoised`; the speed
    channel and the cycle cuts read `a_world`. So a session denoises, runs
    the attitude scan and rotates once per stream."""

    denoised: ImuSeries
    a_world: np.ndarray


def imu_chains(imus: list[ImuSeries]) -> list[ImuChain]:
    """Each stream denoised, run through the attitude scan and rotated into
    the world frame. The acc | gyro columns of the streams of one (length,
    rate) are denoised in one call, and the streams of one length run one
    attitude scan. A stream too short to denoise is SeriesTooShort."""
    require_squarable("IMU", *(b for imu in imus for b in (imu.acc, imu.gyro)))
    blocks = by_shape(wavelet_denoise,
                      [np.hstack([imu.acc, imu.gyro]) for imu in imus],
                      [imu.sample_rate for imu in imus])
    denoised = [ImuSeries(imu.t.copy(), b[:, 0:3], b[:, 3:6],
                          sample_rate=imu.sample_rate)
                for imu, b in zip(imus, blocks)]
    # x - 0.0 is x: only the vertical loses gravity
    return [ImuChain(d, (rotation_matrices(q) @ d.acc[:, :, None])[:, :, 0]
                     - GRAVITY_WORLD)
            for d, q in zip(denoised, ahrs_streams(denoised))]


def as_chain(imu: ImuSeries | ImuChain) -> ImuChain:
    """The prepared chain of a raw stream, imu_chains of it alone; a
    prepared chain passes through."""
    return imu if isinstance(imu, ImuChain) else imu_chains([imu])[0]


def _boundaries_from_vertical(v: np.ndarray, rate: float) -> list[int]:
    """Cut sample indices of the vertical `v`: a period-locked extremum comb.

    The cycle length comes from the autocorrelation peak inside the period
    bounds; boundaries are the candidate minima closest to a regular comb of
    that period, phased to maximize summed minimum depth. The comb keeps the
    selection stable when the channel carries two near-equal minima per
    cycle (step-versus-stride ambiguity) where a plain spaced peak picker
    flips between them.
    """
    std = v.std()
    if std <= 0:
        raise NoCyclesFound("flat segmentation channel")
    x = v - v.mean()
    ac = np.correlate(x, x, "full")[len(x) - 1:]
    lo = max(int(MIN_PERIOD_S * rate), 1)
    hi = min(int(MAX_PERIOD_S * rate), len(ac) - 1)
    if hi <= lo:
        raise NoCyclesFound("series shorter than one cycle")
    # the period must be a local autocorrelation maximum; a bare argmax can
    # land on the truncated flank of a shorter-lag peak at the range edge
    peaks, _ = find_peaks(ac[lo:hi + 1])
    if len(peaks):
        period = lo + int(peaks[np.argmax(ac[lo + peaks])])
    else:
        period = lo + int(np.argmax(ac[lo:hi + 1]))

    cands, _ = find_peaks(-x, prominence=PROMINENCE * std)
    if len(cands) == 0:
        raise NoCyclesFound("no prominent minima")
    tol = max(int(0.06 * period), 1)

    # an anchor's comb is the grid of its residue mod period: each grid
    # index takes the deepest candidate within tol of it (the first on
    # ties), or itself when there is none; look that up once per index
    # from a searchsorted window over the sorted candidates
    grid = np.arange(len(x))
    first = np.searchsorted(cands, grid - tol, "left")
    stop = np.searchsorted(cands, grid + tol, "right")
    slots = first[:, None] + np.arange(int((stop - first).max()))
    inside = slots < stop[:, None]
    slots = np.minimum(slots, len(cands) - 1)
    deepest = np.where(inside, x[cands[slots]], np.inf).argmin(axis=1)
    pick = np.where(stop > first, cands[slots[grid, deepest]], grid)

    best = None
    for residue in dict.fromkeys((cands % period).tolist()):
        picks = sorted(set(pick[residue::period].tolist()))
        depth = float(np.mean(x[picks]))
        if best is None or depth < best[0]:
            best = (depth, picks)
    return best[1]


def _cuts(chain: ImuChain) -> tuple[list[int], list[float]]:
    """The world-frame vertical's cut sample indices and grid instants."""
    t0, rate = float(chain.denoised.t[0]), chain.denoised.sample_rate
    duration = (len(chain.denoised) - 1) / rate
    if duration < 2 * MIN_PERIOD_S:
        raise SeriesTooShort(f"{duration:.2f} s cannot hold a full cycle")
    cuts = _boundaries_from_vertical(chain.a_world[:, 2], rate)
    return cuts, [t0 + i / rate for i in cuts]


def cycle_boundaries(imu: ImuSeries | ImuChain) -> list[float]:
    """Candidate cycle-cut instants: prominent vertical-acceleration minima."""
    return _cuts(as_chain(imu))[1]


def _cycles(chain: ImuChain) -> list[tuple[int, int, float, float]]:
    """(i, j, t_i, t_j) of consecutive cuts i, j whose length (j - i) / rate
    lies within the period bounds, whatever sample the cycle starts on."""
    cuts, times = _cuts(chain)
    rate = chain.denoised.sample_rate
    cycles = [c for c in zip(cuts, cuts[1:], times, times[1:])
              if MIN_PERIOD_S <= (c[1] - c[0]) / rate <= MAX_PERIOD_S]
    if not cycles:
        raise NoCyclesFound("no extrema spaced within the period bounds")
    return cycles


def segment_cycles(imu: ImuSeries | ImuChain) -> list[tuple[float, float]]:
    """Cycle (start, end) instants between vertical-acceleration minima."""
    return [(a, b) for _, _, a, b in _cycles(as_chain(imu))]


def normalize_cycle(raw: np.ndarray, t_start: float = 0.0,
                    t_end: float = 1.5) -> GaitCycle:
    """Per-channel linear interpolation onto CYCLE_LENGTH equal steps."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape[1] < 2:
        raise CycleTooShort("need >= 2 samples per cycle")
    x_old = np.linspace(0.0, 1.0, raw.shape[1])
    x_new = np.linspace(0.0, 1.0, CYCLE_LENGTH)
    channels = np.vstack([np.interp(x_new, x_old, row) for row in raw])
    return GaitCycle(channels=channels, t_start=t_start, t_end=t_end)


def gait_representation(imu: ImuSeries | ImuChain) -> list[GaitCycle]:
    """Full IMU gait pipeline: denoise, segment on the world-frame vertical,
    normalize the phone-frame acceleration and angular rate of each cycle,
    sliced from cut to cut sample, both included."""
    chain = as_chain(imu)
    phone = np.hstack([chain.denoised.acc, chain.denoised.gyro]).T   # (6, n)
    return [normalize_cycle(phone[:, i:j + 1], t_start, t_end)
            for i, j, t_start, t_end in _cycles(chain)]


CYCLE_FEATURE_COUNT = 30  # 6 channels x 5 statistics


def cycle_feature_rows(cycles: list[GaitCycle]) -> np.ndarray:
    """(m, 30) per-cycle feature rows of m equal-length cycles: per channel
    (mean, std, min, max, dominant frequency), 6 x 5 dims. The cycles are
    stacked into one (m, 6, L) array and each statistic and the FFT taken
    along its last axis once, each row bit for bit what its cycle gives
    alone. A cycle's dominant frequency is its rfft bin scaled by its own
    effective rate, L over its duration."""
    ch = np.stack([c.channels for c in cycles])
    length = ch.shape[-1]
    eff_rate = length / np.array([c.t_end - c.t_start for c in cycles])
    mean = ch.mean(axis=-1)
    spec = np.abs(np.fft.rfft(ch - mean[..., None], axis=-1))
    dom = (spec[..., 1:].argmax(axis=-1) + 1 if spec.shape[-1] > 1
           else np.zeros(mean.shape, dtype=int))
    # np.fft.rfftfreq(length, d=1 / eff_rate)[dom], one rate per cycle
    freqs = dom * (1.0 / (length * (1.0 / eff_rate)))[:, None]
    return np.stack([mean, ch.std(axis=-1), ch.min(axis=-1),
                     ch.max(axis=-1), freqs], axis=-1).reshape(len(ch), -1)
