"""Temporal co-registration of the two modalities.

Two-way clock-offset estimation with Kalman drift tracking, and alignment
of both speed channels onto one timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOverlap, NegativeRoundTrip
from .series import Series1D

COMMON_RATE = 50.0           # Hz, the aligned channels' grid
# The shortest aligned overlap, in seconds, that is scored: enrollment's
# sub-window length, so no verification is shorter than what the model saw.
MIN_OVERLAP_S = 3.0
# The shortest session, in seconds, that a capture, a synthesized session
# or an experiment config may ask for.
MIN_SESSION_S = 3.0
SYNC_EXCHANGE_PERIOD = 0.5   # seconds between two-way exchanges
DRIFT_NOISE = 1e-8           # drift-rate process noise of the offset track


@dataclass(frozen=True)
class ClockOffsetEstimate:
    offset: float     # seconds, remote clock minus local clock
    variance: float   # seconds^2
    round_trip: float  # seconds

    def __post_init__(self):
        if self.round_trip < 0:
            raise NegativeRoundTrip(f"round trip {self.round_trip}")
        if self.variance < 0:
            raise ValueError("variance must be non-negative")


@dataclass
class AlignedPair:
    """Both speed channels, sample for sample on the COMMON_RATE grid."""

    imu_speed: np.ndarray
    video_speed: np.ndarray

    def __post_init__(self):
        if len(self.imu_speed) != len(self.video_speed):
            raise ValueError("aligned channels must have equal length")


def two_way_offset(t1: float, t2: float, t3: float, t4: float) -> ClockOffsetEstimate:
    """Offset from one two-way timestamp exchange.

    t1 local send, t2 remote receive, t3 remote send, t4 local receive.
    Exact whenever forward and return delays are symmetric.
    """
    if t4 < t1 or t3 < t2:
        raise NegativeRoundTrip("timestamps out of order")
    offset = ((t2 - t1) + (t3 - t4)) / 2.0
    rtt = (t4 - t1) - (t3 - t2)
    if rtt < 0:
        raise NegativeRoundTrip(f"round trip {rtt}")
    return ClockOffsetEstimate(offset=offset, variance=(rtt / 2.0) ** 2,
                               round_trip=rtt)


def kalman_track_offset(estimates: list[ClockOffsetEstimate]
                        ) -> list[ClockOffsetEstimate]:
    """Kalman filter over (offset, drift rate) with constant drift, one
    estimate per SYNC_EXCHANGE_PERIOD."""
    if not estimates:
        raise ValueError("need at least one estimate")
    if len(estimates) == 1:
        return list(estimates)

    x = np.array([estimates[0].offset, 0.0])
    p = np.diag([max(estimates[0].variance, 1e-12), 1e-6])
    dt = SYNC_EXCHANGE_PERIOD
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = DRIFT_NOISE * np.array([[dt ** 3 / 3, dt ** 2 / 2], [dt ** 2 / 2, dt]])
    h = np.array([[1.0, 0.0]])

    out = [ClockOffsetEstimate(float(x[0]), float(p[0, 0]), estimates[0].round_trip)]
    for est in estimates[1:]:
        x = f @ x
        p = f @ p @ f.T + q
        r = max(est.variance, 1e-12)
        s = float(p[0, 0] + r)
        k = (p @ h.T / s).ravel()
        x = x + k * (est.offset - x[0])
        p = (np.eye(2) - np.outer(k, h.ravel())) @ p
        out.append(ClockOffsetEstimate(float(x[0]), float(p[0, 0]), est.round_trip))
    return out


def align(imu: Series1D, video: Series1D, offset: ClockOffsetEstimate,
          imu_valid: np.ndarray | None = None,
          video_valid: np.ndarray | None = None) -> AlignedPair:
    """Shift the video timeline by the tracked offset and co-register both
    channels on a COMMON_RATE grid; grid points without a valid source sample
    within half a sample period on both sides are dropped.
    """
    t_imu = imu.times
    t_video = video.times - offset.offset
    lo = max(t_imu[0], t_video[0])
    hi = min(t_imu[-1], t_video[-1])
    if hi - lo < MIN_OVERLAP_S:
        raise InsufficientOverlap(f"overlap {hi - lo:.3f} s")

    n = int(np.floor((hi - lo) * COMMON_RATE)) + 1
    grid = lo + np.arange(n) / COMMON_RATE
    imu_g = np.interp(grid, t_imu, imu.values)
    vid_g = np.interp(grid, t_video, video.values)

    keep = np.ones(n, dtype=bool)
    half = 0.5 / COMMON_RATE
    for t_src, valid in ((t_imu, imu_valid), (t_video, video_valid)):
        if valid is None:
            continue
        t_ok = t_src[np.asarray(valid, dtype=bool)]
        if len(t_ok) == 0:
            keep[:] = False
            break
        idx = np.searchsorted(t_ok, grid)
        left = np.abs(grid - t_ok[np.clip(idx - 1, 0, len(t_ok) - 1)])
        right = np.abs(t_ok[np.clip(idx, 0, len(t_ok) - 1)] - grid)
        src_period = np.median(np.diff(t_src)) if len(t_src) > 1 else half
        keep &= np.minimum(left, right) <= max(half, src_period)
    if keep.sum() < MIN_OVERLAP_S * COMMON_RATE:
        raise InsufficientOverlap("too few temporally matched pairs")

    return AlignedPair(imu_g[keep], vid_g[keep])
