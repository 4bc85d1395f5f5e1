"""Gait-cycle segmentation, normalization, and the per-cycle feature row."""

import numpy as np
import pytest

from syncgait.errors import CycleTooShort, NoCyclesFound, SeriesTooShort
from syncgait.gait import (CYCLE_LENGTH, GaitCycle, _boundaries_from_vertical,
                           cycle_feature_vector, gait_representation,
                           normalize_cycle, segment_cycles)
from syncgait.series import ImuSeries, Series1D
from syncgait.synth import SubjectParams, generate_session


def _sine_imu(period=1.5, duration=12.0, rate=100.0, noise=0.0, seed=0):
    """Vertical bobbing only: acceleration = g + second derivative of bob."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * rate)) / rate
    w = 2 * np.pi / period
    az = 9.81 - 0.5 * w * w * np.sin(w * t)
    acc = np.column_stack([np.zeros_like(t), np.zeros_like(t), az])
    mag = np.tile([22.0, 0.0, -43.0], (len(t), 1))
    if noise:
        acc = acc + rng.normal(0, noise, acc.shape)
    return ImuSeries(t, acc, np.zeros((len(t), 3)), mag, rate)


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
        _boundaries_from_vertical(Series1D(np.zeros(1000), rate=100.0))


def test_normalize_cycle_fixed_length_and_endpoints():
    raw = np.vstack([np.linspace(0, 1, 37) for _ in range(6)])
    cyc = normalize_cycle(raw, t_start=2.0, t_end=3.4)
    assert cyc.channels.shape == (6, CYCLE_LENGTH)
    assert cyc.channels[0, 0] == pytest.approx(0.0)
    assert cyc.channels[0, -1] == pytest.approx(1.0)


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
    feats = cycle_feature_vector(cyc)
    assert feats.shape == (30,)
    assert feats[0] == pytest.approx(cyc.channels[0].mean())
    assert feats[2] == pytest.approx(cyc.channels[0].min())


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
