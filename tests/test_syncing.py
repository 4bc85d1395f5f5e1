"""Clock-offset estimation, Kalman tracking, and channel alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import InsufficientOverlap, NegativeRoundTrip
from syncgait.series import Series1D
from syncgait.pipeline import imu_speed_channel
from syncgait.protocol import ChannelModel
from syncgait.syncing import (COMMON_RATE, DRIFT_NOISE, MIN_OVERLAP_S,
                              MIN_OVERLAP_SAMPLES, SYNC_EXCHANGE_PERIOD,
                              AlignedPair, ClockOffsetEstimate, align,
                              kalman_track_offset, two_way_offset)
from syncgait.synth import SubjectParams, generate_session


def test_two_way_offset_exact_under_symmetric_delay():
    # exact for every (offset, delay) combination when both directions match
    for offset in np.linspace(-0.5, 0.5, 25):
        for delay in np.linspace(0.001, 0.2, 20):
            t1 = 10.0
            t2 = t1 + delay + offset
            t3 = t2 + 0.003
            t4 = t3 - offset + delay
            est = two_way_offset(t1, t2, t3, t4)
            assert est.offset == pytest.approx(offset, abs=1e-12)
            assert est.round_trip == pytest.approx(2 * delay, abs=1e-12)


@given(st.floats(-1.0, 1.0), st.floats(0.0005, 0.3), st.floats(0.0, 0.1))
@settings(max_examples=200, deadline=None)
def test_two_way_offset_error_bounded_by_asymmetry(offset, delay, extra):
    # with asymmetric delays the error is at most half the delay difference
    t1 = 5.0
    t2 = t1 + delay + offset
    t3 = t2 + 0.001
    t4 = t3 - offset + delay + extra
    est = two_way_offset(t1, t2, t3, t4)
    assert abs(est.offset - offset) <= extra / 2 + 1e-12


def test_two_way_offset_rejects_disordered_timestamps():
    with pytest.raises(NegativeRoundTrip):
        two_way_offset(1.0, 2.0, 1.5, 0.5)


def test_clock_offset_estimate_validation():
    with pytest.raises(NegativeRoundTrip):
        ClockOffsetEstimate(offset=0.0, variance=0.0, round_trip=-1.0)
    with pytest.raises(ValueError):
        ClockOffsetEstimate(offset=0.0, variance=-1.0, round_trip=0.0)


def test_kalman_beats_single_sample_under_jitter():
    # 50 seeds, 20 exchanges each, 5 ms jitter; the tracked offset must land
    # within 2 ms of truth in at least 95% of runs
    true_offset = 0.08
    hits = 0
    seeds = 50
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        estimates = []
        for _ in range(20):
            fwd = 0.004 + abs(rng.normal(0, 0.005))
            back = 0.004 + abs(rng.normal(0, 0.005))
            t1 = rng.uniform(0, 100)
            t2 = t1 + fwd + true_offset
            t3 = t2 + 0.001
            t4 = t3 - true_offset + back
            estimates.append(two_way_offset(t1, t2, t3, t4))
        tracked = kalman_track_offset(estimates)
        if abs(tracked[-1].offset - true_offset) < 0.002:
            hits += 1
    assert hits / seeds >= 0.95


def test_kalman_variance_shrinks():
    estimates = [ClockOffsetEstimate(0.05, 1e-4, 0.01) for _ in range(10)]
    tracked = kalman_track_offset(estimates)
    assert tracked[-1].variance < tracked[0].variance


def test_kalman_requires_estimates():
    with pytest.raises(ValueError):
        kalman_track_offset([])


def _matrix_track_offset(estimates):
    """Reference: the (offset, drift) Kalman recursion in numpy 2x2 matrix
    form, as `kalman_track_offset` ran it before it was written out."""
    if len(estimates) == 1:
        return list(estimates)
    x = np.array([estimates[0].offset, 0.0])
    p = np.diag([max(estimates[0].variance, 1e-12), 1e-6])
    dt = SYNC_EXCHANGE_PERIOD
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = DRIFT_NOISE * np.array([[dt ** 3 / 3, dt ** 2 / 2], [dt ** 2 / 2, dt]])
    h = np.array([[1.0, 0.0]])
    out = [ClockOffsetEstimate(float(x[0]), float(p[0, 0]),
                               estimates[0].round_trip)]
    for est in estimates[1:]:
        x = f @ x
        p = f @ p @ f.T + q
        r = max(est.variance, 1e-12)
        s = float(p[0, 0] + r)
        k = (p @ h.T / s).ravel()
        x = x + k * (est.offset - x[0])
        p = (np.eye(2) - np.outer(k, h.ravel())) @ p
        out.append(ClockOffsetEstimate(float(x[0]), float(p[0, 0]),
                                       est.round_trip))
    return out


def _sync_exchanges(rng, n, clock_offset, delay_scale):
    """n two-way exchanges as the protocol's time sync makes them: one per
    SYNC_EXCHANGE_PERIOD, each way delayed by the channel's delay times
    delay_scale, the remote side replying 1 ms after it received."""
    channel = ChannelModel()
    out = []
    for seq in range(n):
        t1 = 3.0 + seq * SYNC_EXCHANGE_PERIOD
        t2 = t1 + delay_scale * channel.delay(rng) + clock_offset
        t3 = t2 + 0.001
        t4 = t3 - clock_offset + delay_scale * channel.delay(rng)
        out.append(two_way_offset(t1, t2, t3, t4))
    return out


@pytest.mark.parametrize("n", [1, 2, 16])
@pytest.mark.parametrize("clock_offset", [0.08, -0.35])
@pytest.mark.parametrize("delay_scale", [1.0, 1e-4])
def test_kalman_track_offset_is_the_matrix_recursion_bit_for_bit(
        n, clock_offset, delay_scale):
    # at delay_scale 1e-4 every round trip is under 2 us, so every variance
    # lies under the 1e-12 floor
    for seed in range(20):
        estimates = _sync_exchanges(np.random.default_rng(seed), n,
                                    clock_offset, delay_scale)
        if delay_scale < 1:
            assert all(e.variance < 1e-12 for e in estimates)
        got = kalman_track_offset(estimates)
        want = _matrix_track_offset(estimates)
        assert [(e.offset.hex(), e.variance.hex(), e.round_trip)
                for e in got] == [(e.offset.hex(), e.variance.hex(),
                                   e.round_trip) for e in want]


# --- alignment -----------------------------------------------------------------

def _pair_with_offset(offset: float, rate_a=100.0, rate_b=60.0, dur=6.0):
    ta = np.arange(int(dur * rate_a)) / rate_a
    tb = np.arange(int(dur * rate_b)) / rate_b
    f = 1.4
    a = Series1D(np.sin(2 * np.pi * f * ta), t0=0.0, rate=rate_a)
    # the video channel carries timestamps shifted by the clock offset
    b = Series1D(np.sin(2 * np.pi * f * tb), t0=offset, rate=rate_b)
    return a, b


def test_align_compensates_clock_offset():
    offset = 0.35
    a, b = _pair_with_offset(offset)
    pair = align(a, b, ClockOffsetEstimate(offset, 1e-6, 0.004))
    # after compensation the two sinusoids coincide sample for sample
    r = np.corrcoef(pair.imu_speed, pair.video_speed)[0, 1]
    assert r > 0.999
    assert len(pair.imu_speed) == len(pair.video_speed)


def test_align_without_compensation_misaligns():
    offset = 0.35
    a, b = _pair_with_offset(offset)
    pair = align(a, b, ClockOffsetEstimate(0.0, 1e-6, 0.004))
    r = np.corrcoef(pair.imu_speed, pair.video_speed)[0, 1]
    assert r < 0.5


def test_align_insufficient_overlap():
    a = Series1D(np.zeros(500), t0=0.0, rate=100.0)
    b = Series1D(np.zeros(500), t0=4.5, rate=100.0)
    with pytest.raises(InsufficientOverlap):
        align(a, b, ClockOffsetEstimate(0.0, 1e-6, 0.004))


def test_align_drops_invalid_spans():
    a, b = _pair_with_offset(0.0)
    valid = np.ones(len(a), dtype=bool)
    valid[200:300] = False
    pair_full = align(a, b, ClockOffsetEstimate(0.0, 1e-6, 0.004))
    pair_masked = align(a, b, ClockOffsetEstimate(0.0, 1e-6, 0.004),
                        imu_valid=valid)
    assert len(pair_masked.imu_speed) < len(pair_full.imu_speed)


@pytest.mark.parametrize("name", ["imu_valid", "video_valid"])
@pytest.mark.parametrize("entries", [10, 900])
@pytest.mark.parametrize("partial", [False, True])
def test_align_refuses_a_mask_of_the_wrong_length(name, entries, partial):
    a = Series1D(np.sin(np.arange(800) / 10.0), t0=0.0, rate=100.0)
    b = Series1D(np.cos(np.arange(800) / 10.0), t0=0.0, rate=100.0)
    mask = np.ones(entries, dtype=bool)
    mask[0] = not partial
    with pytest.raises(ValueError, match=rf"{name} .*\({entries},\).* 800 "):
        align(a, b, ClockOffsetEstimate(0.0, 1e-6, 0.004), **{name: mask})


def _nearest_sample_align(imu, video, offset, imu_valid, video_valid):
    """Reference: align as it was written before the all-valid skip, every
    given mask tested grid point by grid point."""
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
        t_ok = t_src[np.asarray(valid, dtype=bool)]
        if len(t_ok) == 0:
            keep[:] = False
            break
        idx = np.searchsorted(t_ok, grid)
        left = np.abs(grid - t_ok[np.clip(idx - 1, 0, len(t_ok) - 1)])
        right = np.abs(t_ok[np.clip(idx, 0, len(t_ok) - 1)] - grid)
        src_period = np.median(np.diff(t_src)) if len(t_src) > 1 else half
        keep &= np.minimum(left, right) <= max(half, src_period)
    if keep.sum() < MIN_OVERLAP_SAMPLES:
        raise InsufficientOverlap("too few temporally matched pairs")
    return AlignedPair(imu_g[keep], vid_g[keep])


def _outcome(f, *args, **kwargs):
    """The aligned arrays' bytes, or the type of the error raised."""
    try:
        pair = f(*args, **kwargs)
    except InsufficientOverlap as exc:
        return type(exc)
    return pair.imu_speed.tobytes(), pair.video_speed.tobytes()


@given(imu_rate=st.floats(10.0, 200.0), video_rate=st.floats(10.0, 200.0),
       imu_s=st.floats(2.0, 12.0), video_s=st.floats(2.0, 12.0),
       t0=st.floats(-1e4, 1e4), lag=st.floats(-1.0, 1.0),
       offset=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=300, deadline=None)
def test_all_valid_masks_align_as_no_masks_and_as_the_nearest_sample_test(
        imu_rate, video_rate, imu_s, video_s, t0, lag, offset, seed):
    rng = np.random.default_rng(seed)
    imu = Series1D(rng.normal(size=max(int(imu_s * imu_rate), 1)), t0,
                   imu_rate)
    video = Series1D(rng.normal(size=max(int(video_s * video_rate), 1)),
                     t0 + offset + lag, video_rate)
    est = ClockOffsetEstimate(offset, 1e-6, 0.004)
    whole = (np.ones(len(imu), dtype=bool), np.ones(len(video), dtype=bool))
    want = _outcome(_nearest_sample_align, imu, video, est, *whole)
    assert _outcome(align, imu, video, est, *whole) == want
    assert _outcome(align, imu, video, est) == want
    # a partial mask still takes the nearest-sample test
    partial = tuple(m & (rng.random(len(m)) > 0.1) for m in whole)
    assert (_outcome(align, imu, video, est, *partial)
            == _outcome(_nearest_sample_align, imu, video, est, *partial))


def test_aligned_pair_length_check():
    with pytest.raises(ValueError):
        AlignedPair(np.zeros(5), np.zeros(4))


def test_imu_hand_speed_normalizes():
    imu, _, _ = generate_session(SubjectParams(seed=1), duration=4.0)
    s = imu_speed_channel(imu)
    assert len(s) == len(imu) and s.t0 == imu.t[0]
    assert abs(s.values.mean()) < 1e-9
    assert np.isclose(s.values.std(), 1.0)
