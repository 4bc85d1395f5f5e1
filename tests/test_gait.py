"""Gait-cycle segmentation, normalization, and the per-cycle feature row."""

import numpy as np
import pytest
from scipy.signal import find_peaks

from syncgait import gait
from syncgait.errors import CycleTooShort, NoCyclesFound, SeriesTooShort
from syncgait.gait import (CYCLE_LENGTH, MAX_PERIOD_S, MIN_PERIOD_S,
                           PROMINENCE, GaitCycle, _boundaries_from_vertical,
                           cycle_feature_rows, gait_representation, imu_chains,
                           normalize_cycle, segment_cycles)
from syncgait.pipeline import gait_vectors
from syncgait.series import ImuSeries
from syncgait.synth import CameraModel, SubjectParams, generate_session


def _sine_imu(period=1.5, duration=12.0, rate=100.0, noise=0.0, seed=0):
    """Vertical bobbing only: acceleration = g + second derivative of bob."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * rate)) / rate
    w = 2 * np.pi / period
    az = 9.81 - 0.5 * w * w * np.sin(w * t)
    acc = np.column_stack([np.zeros_like(t), np.zeros_like(t), az])
    if noise:
        acc = acc + rng.normal(0, noise, acc.shape)
    return ImuSeries(t, acc, np.zeros((len(t), 3)), sample_rate=rate)


def test_noise_free_sine_cycle_length():
    # 1.5 s period at 100 Hz: every detected cycle within 150 +/- 3 samples
    imu = _sine_imu()
    cycles = segment_cycles(imu)
    assert len(cycles) >= 5
    lengths = [round((b - a) * 100.0) for a, b in cycles]
    assert all(147 <= n <= 153 for n in lengths)


def test_segmentation_locates_minima():
    imu = _sine_imu()
    cycles = segment_cycles(imu)
    # vertical acceleration minima of sin at w t = pi/2 + 2k pi: t = 3/8 T mod T
    period = 1.5
    for a, _ in cycles:
        phase = (a - period * 0.25) % period
        assert min(phase, period - phase) < 0.05


def test_segmentation_robust_to_moderate_noise():
    imu = _sine_imu(noise=0.3, seed=4)
    clean_cycles = segment_cycles(_sine_imu())
    noisy_cycles = segment_cycles(imu)
    assert abs(len(noisy_cycles) - len(clean_cycles)) <= 1
    # interior boundaries move by at most a few samples; the first cut may
    # shift further where the series edge clips its minimum
    for (a, b), (c, d) in list(zip(clean_cycles, noisy_cycles))[1:]:
        assert abs(a - c) < 0.1 and abs(b - d) < 0.1


def test_segmentation_too_short():
    with pytest.raises(SeriesTooShort):
        segment_cycles(_sine_imu(duration=1.0))


def test_boundaries_flat_channel_raises():
    with pytest.raises(NoCyclesFound):
        _boundaries_from_vertical(np.zeros(1000), 100.0)


def _comb_reference(v, rate):
    """Reference: the period-locked comb search one (anchor, target) pair at
    a time, every anchor building its own comb."""
    std = v.std()
    x = v - v.mean()
    ac = np.correlate(x, x, "full")[len(x) - 1:]
    lo = max(int(MIN_PERIOD_S * rate), 1)
    hi = min(int(MAX_PERIOD_S * rate), len(ac) - 1)
    peaks, _ = find_peaks(ac[lo:hi + 1])
    if len(peaks):
        period = lo + int(peaks[np.argmax(ac[lo + peaks])])
    else:
        period = lo + int(np.argmax(ac[lo:hi + 1]))
    cands, _ = find_peaks(-x, prominence=PROMINENCE * std)
    tol = max(int(0.06 * period), 1)
    best = None
    for anchor in cands.tolist():
        picks = []
        for k in range(-(anchor // period) - 1,
                       (len(x) - anchor) // period + 2):
            target = anchor + k * period
            if not 0 <= target < len(x):
                continue
            near = cands[np.abs(cands - target) <= tol]
            picks.append(int(near[np.argmin(x[near])]) if len(near)
                         else target)
        picks = sorted(set(picks))
        depth = float(np.mean(x[picks]))
        if best is None or depth < best[0]:
            best = (depth, picks)
    return best[1]


def _tied_vertical(rate):
    # a noisy two-minima walk rounded to 0.1, so that candidate minima tie
    rng = np.random.default_rng(int(rate))
    t = np.arange(int(12 * rate)) / rate
    v = (np.sin(2 * np.pi * t / 1.3) + 0.9 * np.sin(4 * np.pi * t / 1.3)
         + rng.normal(0.0, 0.3, len(t)))
    return np.round(v, 1)


def test_cut_search_reaches_minima_exactly_tol_off_the_comb():
    # a 1.2 s cosine with a narrow dip near each minimum, every other dip
    # 7 samples (the comb's tol at a 120-sample period) early or late
    i = np.arange(1200)
    dips = [j * 120 + 30 + (0, -7, 7, 0)[j % 4] for j in range(10)]
    v = -2.0 * np.cos(2 * np.pi * (i - 30) / 120)
    for k, d in enumerate(dips):
        v -= (3.0 + 0.01 * k) * np.exp(-0.5 * ((i - d) / 1.5) ** 2)
    assert _boundaries_from_vertical(v, 100.0) == dips
    assert _comb_reference(v, 100.0) == dips


@pytest.mark.parametrize("duration", [3.5, 8.0, 12.0, 60.0])
def test_cut_search_equals_the_per_anchor_comb(duration):
    # a camera far enough away for the 60 s walk; its distance moves no IMU
    # sample
    cam = CameraModel(horizontal_distance=100.0)
    for seed in range(3):
        imu, _, _ = generate_session(SubjectParams(seed=seed), cam,
                                     duration=duration, seed_offset=seed)
        v = imu_chains([imu])[0].a_world[:, 2]
        cuts = _boundaries_from_vertical(v, imu.sample_rate)
        assert cuts == _comb_reference(v, imu.sample_rate)
        assert {type(c) for c in cuts} == {int}


@pytest.mark.parametrize("rate", [2.5, 50.0, 100.0])
def test_cut_search_takes_the_first_of_tied_minima_as_the_comb_does(rate):
    v = _tied_vertical(rate)
    assert _boundaries_from_vertical(v, rate) == _comb_reference(v, rate)


@pytest.mark.parametrize("cut", [(2, 82), (165, 415)],
                         ids=["min_period", "max_period"])
def test_a_cycle_at_a_period_bound_is_kept_from_any_start(monkeypatch, cut):
    # 80 and 250 samples at 100 Hz are MIN_PERIOD_S and MAX_PERIOD_S exactly;
    # from these starts the difference of the cut instants misses the bound
    [chain] = imu_chains([_sine_imu()])
    rate = chain.denoised.sample_rate
    assert rate == 100.0 and chain.denoised.t[0] == 0.0
    monkeypatch.setattr(gait, "_cuts",
                        lambda _: (list(cut), [i / rate for i in cut]))
    assert [c[:2] for c in gait._cycles(chain)] == [cut]


def test_normalize_cycle_fixed_length_and_endpoints():
    raw = np.vstack([np.linspace(0, 1, 37) for _ in range(6)])
    cyc = normalize_cycle(raw, t_start=2.0, t_end=3.4)
    assert cyc.channels.shape == (6, CYCLE_LENGTH)
    assert cyc.channels[0, 0] == pytest.approx(0.0)
    assert cyc.channels[0, -1] == pytest.approx(1.0)


def test_gait_representation_resamples_each_cut_as_np_interp():
    imu = generate_session(SubjectParams(seed=2), duration=12.0)[0]
    [chain] = imu_chains([imu])
    phone = np.hstack([chain.denoised.acc, chain.denoised.gyro]).T
    cycles = gait_representation(chain)
    cuts = gait._cycles(chain)
    assert len({j - i for i, j, _, _ in cuts}) > 1   # several lengths
    grid = np.linspace(0.0, 1.0, CYCLE_LENGTH)
    for cycle, (i, j, t_start, t_end) in zip(cycles, cuts, strict=True):
        want = [np.interp(grid, np.linspace(0.0, 1.0, j + 1 - i), row)
                for row in phone[:, i:j + 1]]
        assert cycle.channels.flags.c_contiguous
        assert cycle.channels.tobytes() == np.array(want).tobytes()
        assert (cycle.t_start, cycle.t_end) == (t_start, t_end)


def test_normalize_cycle_too_short():
    with pytest.raises(CycleTooShort):
        normalize_cycle(np.zeros((6, 1)))


def test_gait_cycle_validation():
    with pytest.raises(ValueError):
        GaitCycle(np.zeros((5, 10)), 0.0, 1.0)
    with pytest.raises(ValueError):
        GaitCycle(np.zeros((6, 10)), 1.0, 1.0)


def test_cycle_feature_vector_shape_and_stats():
    rng = np.random.default_rng(2)
    cyc = GaitCycle(rng.normal(size=(6, CYCLE_LENGTH)), 0.0, 1.5)
    feats = cycle_feature_rows([cyc])[0]
    assert feats.shape == (30,)
    assert feats[0] == pytest.approx(cyc.channels[0].mean())
    assert feats[2] == pytest.approx(cyc.channels[0].min())


def _per_row_features(cycle):
    """Reference: the statistics of one channel at a time."""
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


def test_cycle_feature_vector_equals_the_per_row_statistics_bit_for_bit():
    cycles = [c for seed in range(3)
              for c in gait_representation(generate_session(
                  SubjectParams(seed=seed), seed_offset=seed)[0])]
    rng = np.random.default_rng(5)
    cycles += [GaitCycle(rng.normal(size=(6, n)), 0.0, 1.0 + n / 100)
               for n in (1, 2, 3, 149, 150)]
    for c in cycles:
        assert (cycle_feature_rows([c])[0].tobytes()
                == _per_row_features(c).tobytes())


def test_cycle_feature_rows_equal_each_cycle_alone():
    # cycles of one session differ in duration, so each row needs its own
    # effective rate
    for seed in range(3):
        imu = generate_session(SubjectParams(seed=seed), duration=12.0,
                               seed_offset=seed)[0]
        cycles = gait_representation(imu)
        assert len({c.t_end - c.t_start for c in cycles}) > 1
        want = np.array([_per_row_features(c) for c in cycles])
        assert cycle_feature_rows(cycles).tobytes() == want.tobytes()
        assert gait_vectors(imu).tobytes() == want.tobytes()


def test_gait_representation_on_synthetic_subject():
    imu, _, gt = generate_session(SubjectParams(seed=9), duration=8.0)
    cycles = gait_representation(imu)
    assert len(cycles) >= 3
    for c in cycles:
        assert c.channels.shape == (6, CYCLE_LENGTH)
        assert 0.8 <= c.t_end - c.t_start <= 2.5
    # detected boundaries stay close to the noise-free ground truth
    gtb = np.array(gt.cycle_boundaries)
    for c in cycles:
        assert np.min(np.abs(gtb - c.t_start)) < 0.1


def test_gait_representation_keeps_the_cycle_of_a_short_stream():
    # 1.8 s holds one 1.5 s cycle, and the representation keeps it
    imu = _sine_imu(duration=1.8)
    cycles = segment_cycles(imu)
    assert len(cycles) == 1
    assert [(c.t_start, c.t_end) for c in gait_representation(imu)] == cycles


def test_imu_chain_of_a_stream_too_short_to_denoise_raises():
    imu = _sine_imu(duration=0.15)
    assert len(imu) == 15
    with pytest.raises(SeriesTooShort):
        imu_chains([imu])


@pytest.mark.parametrize("clock", ["jitter", "drift"])
def test_gait_rows_read_the_rate_grid_not_the_timestamps(clock):
    # the chain reads no timestamp after t[0]: jittered or drifting clock
    # readings of the same samples, from the same t[0], give the same rows
    imu, _, _ = generate_session(SubjectParams(seed=41), seed_offset=7)
    k = np.arange(len(imu))
    jitter = np.random.default_rng(3).uniform(-0.002, 0.002, len(k))
    t = {"jitter": imu.t + np.where(k > 0, jitter, 0.0),
         "drift": imu.t[0] + k / 100.5}[clock]
    assert not np.array_equal(t, imu.t) and t[0] == imu.t[0]
    other = ImuSeries(t, imu.acc, imu.gyro, sample_rate=imu.sample_rate)
    assert gait_vectors(other).tobytes() == gait_vectors(imu).tobytes()
