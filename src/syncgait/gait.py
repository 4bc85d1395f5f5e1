"""IMU gait segmentation and the 6-channel cycle representation.

Cycles are cut at prominent local minima of the world-frame vertical
acceleration, then each cycle's (a_x, a_y, a_z, roll, pitch, yaw) channels
are interpolated to a fixed length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import find_peaks

from .errors import CycleTooShort, NoCyclesFound, SeriesTooShort
from .orientation import GRAVITY, Quaternion, ahrs_stream, quaternion_to_euler
from .series import DENOISE_LEVELS, ImuSeries, Series1D, wavelet_denoise

CYCLE_LENGTH = 150  # samples; 1.5 s at 100 Hz
MIN_PERIOD_S = 0.8  # cycle-period bounds
MAX_PERIOD_S = 2.5
PROMINENCE = 0.5    # cut-minimum prominence, fraction of signal std


@dataclass
class GaitCycle:
    channels: np.ndarray   # (6, L): a_x, a_y, a_z, roll, pitch, yaw
    t_start: float
    t_end: float

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=float)
        if self.channels.shape[0] != 6:
            raise ValueError("expected 6 channels")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")


def _denoise_imu(imu: ImuSeries) -> ImuSeries:
    def den(block: np.ndarray) -> np.ndarray:
        cols = [wavelet_denoise(Series1D(block[:, k], rate=imu.sample_rate)).values
                for k in range(3)]
        return np.column_stack(cols)

    if len(imu) < 2 ** DENOISE_LEVELS:
        return imu
    return ImuSeries(imu.t.copy(), den(imu.acc), den(imu.gyro), den(imu.mag),
                     imu.sample_rate)


@dataclass(frozen=True)
class ImuChain:
    """One IMU stream prepared once: the wavelet-denoised samples and one
    attitude quaternion per sample. The consistency and gait paths both
    read it, so a session runs denoising and the AHRS once per stream."""

    denoised: ImuSeries
    quats: list[Quaternion]

    def __len__(self) -> int:
        return len(self.denoised)

    @property
    def sample_rate(self) -> float:
        return self.denoised.sample_rate

    @cached_property
    def euler(self) -> np.ndarray:
        """(n, 3) roll, pitch, yaw per sample."""
        return np.array([[e.roll, e.pitch, e.yaw]
                         for e in (quaternion_to_euler(q) for q in self.quats)])


def imu_chain(imu: ImuSeries) -> ImuChain:
    """Denoise the stream and run the attitude filter over it."""
    if len(imu) < 3:
        raise SeriesTooShort("need >= 3 IMU samples")
    denoised = _denoise_imu(imu)
    return ImuChain(denoised, ahrs_stream(denoised))


def as_chain(imu: ImuSeries | ImuChain) -> ImuChain:
    """The prepared chain of a raw stream; a prepared chain passes through."""
    return imu if isinstance(imu, ImuChain) else imu_chain(imu)


def vertical_acceleration(imu: ImuSeries, quats: list[Quaternion]) -> Series1D:
    """World-frame z acceleration minus gravity."""
    vz = np.empty(len(imu))
    for k, q in enumerate(quats):
        r = q.to_matrix()
        vz[k] = r[2] @ imu.acc[k] - GRAVITY
    return Series1D(vz, t0=float(imu.t[0]), rate=imu.sample_rate)


def _boundaries_from_vertical(vert: Series1D) -> list[float]:
    """Period-locked extremum comb.

    The cycle length comes from the autocorrelation peak inside the period
    bounds; boundaries are the candidate minima closest to a regular comb of
    that period, phased to maximize summed minimum depth. The comb keeps the
    selection stable when the channel carries two near-equal minima per
    cycle (step-versus-stride ambiguity) where a plain spaced peak picker
    flips between them.
    """
    v = vert.values
    std = v.std()
    if std <= 0:
        raise NoCyclesFound("flat segmentation channel")
    rate = vert.rate
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

    def comb(anchor: int) -> list[int]:
        picks = []
        k_min = -(anchor // period) - 1
        k_max = (len(x) - anchor) // period + 1
        for k in range(k_min, k_max + 1):
            target = anchor + k * period
            if not 0 <= target < len(x):
                continue
            near = cands[np.abs(cands - target) <= tol]
            picks.append(int(near[np.argmin(x[near])]) if len(near)
                         else int(target))
        return sorted(set(picks))

    best = None
    for anchor in cands:
        picks = comb(int(anchor))
        depth = float(np.mean(x[picks]))
        if best is None or depth < best[0]:
            best = (depth, picks)
    return [float(vert.times[i]) for i in best[1]]


def cycle_boundaries(imu: ImuSeries | ImuChain) -> list[float]:
    """Candidate cycle-cut instants: prominent vertical-acceleration minima."""
    duration = (len(imu) - 1) / imu.sample_rate if len(imu) else 0.0
    if duration < 2 * MIN_PERIOD_S:
        raise SeriesTooShort(f"{duration:.2f} s cannot hold a full cycle")
    chain = as_chain(imu)
    vert = vertical_acceleration(chain.denoised, chain.quats)
    return _boundaries_from_vertical(vert)


def segment_cycles(imu: ImuSeries | ImuChain) -> list[tuple[float, float]]:
    """Cycle boundaries from vertical-acceleration minima."""
    return _cycles_from_boundaries(cycle_boundaries(imu))


def _cycles_from_boundaries(times: list[float]) -> list[tuple[float, float]]:
    cycles = []
    for a, b in zip(times, times[1:]):
        if MIN_PERIOD_S <= b - a <= MAX_PERIOD_S:
            cycles.append((a, b))
    if not cycles:
        raise NoCyclesFound("no extrema spaced within the period bounds")
    return cycles


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
    """Full IMU gait pipeline: denoise, orientation, segment, normalize."""
    if len(imu) < 2 * imu.sample_rate:
        raise SeriesTooShort("need >= 2 s of data")
    chain = as_chain(imu)
    denoised = chain.denoised
    vert = vertical_acceleration(denoised, chain.quats)
    cycles = _cycles_from_boundaries(_boundaries_from_vertical(vert))

    out = []
    t = denoised.t
    for t_start, t_end in cycles:
        i0 = int(np.searchsorted(t, t_start))
        i1 = int(np.searchsorted(t, t_end)) + 1
        ang = np.unwrap(chain.euler[i0:i1], axis=0)
        raw = np.vstack([denoised.acc[i0:i1].T, ang.T])
        out.append(normalize_cycle(raw, t_start, t_end))
    return out


def cycle_feature_vector(cycle: GaitCycle) -> np.ndarray:
    """Per-channel (mean, std, min, max, dominant frequency): 30 dims."""
    feats = []
    length = cycle.channels.shape[1]
    eff_rate = length / (cycle.t_end - cycle.t_start)
    for row in cycle.channels:
        spec = np.abs(np.fft.rfft(row - row.mean()))
        dom = np.argmax(spec[1:]) + 1 if len(spec) > 1 else 0
        freqs = np.fft.rfftfreq(length, d=1.0 / eff_rate)
        feats.extend([row.mean(), row.std(), row.min(), row.max(),
                      float(freqs[dom])])
    return np.array(feats)
