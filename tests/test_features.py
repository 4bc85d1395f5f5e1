"""Consistency features and Fisher-score feature selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import DegenerateChannel, PairTooShort
from syncgait.features import (FEATURE_NAMES, FeatureVector, compute_features,
                               fisher_select)
from syncgait.pipeline import _shifted_pairs, _window_pairs
from syncgait.syncing import AlignedPair


def _gait_like(n=400, rate=50.0, f=1.4, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    x = np.sin(2 * np.pi * f * t) + 0.3 * np.sin(2 * np.pi * 2 * f * t)
    return x + rng.normal(0, noise, n)


def test_identical_pair_is_maximally_consistent():
    x = _gait_like()
    [f] = compute_features([AlignedPair(x, x.copy())])
    assert f.pcc == pytest.approx(1.0)
    assert f.spearman == pytest.approx(1.0)
    assert f.mae == pytest.approx(0.0, abs=1e-12)
    assert f.sync_lag_score == pytest.approx(1.0)
    assert f.coherence_mean == pytest.approx(1.0, abs=1e-6)
    assert f.spectral_diff == pytest.approx(0.0, abs=1e-9)


def test_shifted_pair_scores_worse_everywhere():
    x = _gait_like(noise=0.02)
    y = np.roll(x, 18)  # 0.36 s at 50 Hz, half a gait cycle
    aligned, shifted = compute_features([AlignedPair(x, x.copy()),
                                         AlignedPair(x, y)])
    assert shifted.pcc < aligned.pcc
    assert shifted.sync_lag_score < aligned.sync_lag_score
    assert shifted.mae > aligned.mae


def test_independent_pair_low_correlation():
    a = _gait_like(seed=1, f=1.3)
    b = _gait_like(seed=2, f=1.9)
    [f] = compute_features([AlignedPair(a, b)])
    assert abs(f.pcc) < 0.5


def test_sync_lag_score_detects_small_lag():
    x = _gait_like(noise=0.0)
    [f] = compute_features([AlignedPair(x, np.roll(x, 5))])   # 0.1 s at 50 Hz
    # max lag window is 0.5 s: score 1 - 5/25
    assert f.sync_lag_score == pytest.approx(0.8)


def test_pair_too_short():
    with pytest.raises(PairTooShort):
        compute_features([AlignedPair(np.zeros(50), np.zeros(50))])


def test_degenerate_channel():
    with pytest.raises(DegenerateChannel):
        compute_features([AlignedPair(np.ones(400), _gait_like())])


def _session_pairs():
    """One session's window and shifted pairs, 150 and 400 samples long,
    with the two lengths interleaved."""
    x = _gait_like(seed=3)
    noise = np.random.default_rng(4).normal(0, 0.3, len(x))
    pair = AlignedPair(x, np.roll(x, 2) + noise)
    windows, shifted = _window_pairs(pair), _shifted_pairs(pair)
    full, short = windows[:1] + shifted, windows[1:]
    assert {len(p.imu_speed) for p in full} == {400}
    assert {len(p.imu_speed) for p in short} == {150}
    return [p for two in zip(full, short) for p in two]


def test_batch_equals_one_pair_at_a_time_bit_for_bit():
    pairs = _session_pairs()
    batch = compute_features(pairs)
    alone = [compute_features([p])[0] for p in pairs]
    assert len(batch) == len(pairs)
    assert [v.as_array().tobytes() for v in batch] == \
        [v.as_array().tobytes() for v in alone]
    assert compute_features([]) == []


def _flat_in_band(n=400):
    """A pair whose IMU channel has no power in the gait band: it
    alternates at the Nyquist rate, so every in-band FFT bin is 0 (and its
    coherence divides 0 by 0, a RuntimeWarning the test below ignores)."""
    return AlignedPair((-1.0) ** np.arange(n), _gait_like(n))


@pytest.mark.parametrize("bad, error", [
    (AlignedPair(np.zeros(50), np.zeros(50)), PairTooShort),
    (AlignedPair(np.ones(400), _gait_like()), DegenerateChannel),
    (_flat_in_band(), DegenerateChannel),
], ids=["short", "flat", "empty_spectrum"])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_bad_pair_mid_batch_raises_what_the_loop_raises(bad, error):
    pairs = _session_pairs()
    batch = pairs[:3] + [bad] + pairs[3:]

    def loop():
        for p in batch:
            compute_features([p])
    with pytest.raises(error) as alone:
        loop()
    with pytest.raises(error) as batched:
        compute_features(batch)
    assert str(batched.value) == str(alone.value)
    # the first bad pair in input order decides, whatever its kind
    with pytest.raises(DegenerateChannel, match="empty spectrum"):
        compute_features(pairs[:2] + [_flat_in_band(), bad, pairs[2]])
    with pytest.raises(error):
        compute_features([pairs[0], bad, _flat_in_band()])


def test_feature_vector_array_order_matches_names():
    f = FeatureVector(1, 2, 3, 4, 5, 6)
    assert list(f.as_array()) == [1, 2, 3, 4, 5, 6]
    assert FEATURE_NAMES == ("pcc", "spearman", "mae", "sync", "coh",
                             "specdiff")


# --- Fisher selection ----------------------------------------------------------

def _vec(vals):
    return FeatureVector(*vals)


def test_fisher_scores_match_direct_formula():
    rng = np.random.default_rng(8)
    g = rng.normal([1, 0, 0, 0, 0, 0], 0.3, size=(40, 6))
    i = rng.normal([0, 0, 0, 0, 0, 0], 0.3, size=(40, 6))
    rep = fisher_select([_vec(r) for r in g], [_vec(r) for r in i])
    expected = (g.mean(0) - i.mean(0)) ** 2 / (g.var(0) + i.var(0))
    assert np.allclose(rep.normalized, expected / expected.max())


def test_fisher_selects_discriminative_feature():
    rng = np.random.default_rng(9)
    g = rng.normal(0, 0.2, size=(60, 6))
    i = rng.normal(0, 0.2, size=(60, 6))
    g[:, 0] += 3.0    # only the first feature separates the classes
    rep = fisher_select([_vec(r) for r in g], [_vec(r) for r in i])
    assert rep.selected[0]
    assert rep.selected.sum() == 1


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_fisher_scale_invariance(seed):
    # per-feature affine rescaling must not change normalized Fisher scores
    rng = np.random.default_rng(seed)
    g = rng.normal(1.0, 1.0, size=(30, 6))
    i = rng.normal(0.0, 1.0, size=(30, 6))
    scale = rng.uniform(0.5, 5.0, 6)
    shift = rng.uniform(-2, 2, 6)
    rep1 = fisher_select([_vec(r) for r in g], [_vec(r) for r in i])
    rep2 = fisher_select([_vec(r) for r in g * scale + shift],
                         [_vec(r) for r in i * scale + shift])
    assert np.allclose(rep1.normalized, rep2.normalized, atol=1e-9)


def test_fisher_needs_two_samples_per_class():
    with pytest.raises(ValueError):
        fisher_select([_vec(np.zeros(6))], [_vec(np.zeros(6))] * 5)
