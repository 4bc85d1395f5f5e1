"""Consistency features and Fisher-score feature selection."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import csd, welch
from scipy.stats import pearsonr

from syncgait.errors import DegenerateChannel, DegenerateClass, PairTooShort
from syncgait import features
from syncgait.features import (_WELCH_FREQS, FEATURE_NAMES, FeatureVector,
                               _spectra, compute_features, fisher_select)
from syncgait.pipeline import _shifted_pairs, _window_pairs
from syncgait.syncing import COMMON_RATE, AlignedPair


def _gait_like(n=400, rate=50.0, f=1.4, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    x = np.sin(2 * np.pi * f * t) + 0.3 * np.sin(2 * np.pi * 2 * f * t)
    return x + rng.normal(0, noise, n)


PCC, MAE, COH = range(len(FEATURE_NAMES))


def test_identical_pair_is_maximally_consistent():
    x = _gait_like()
    [f] = compute_features([AlignedPair(x, x.copy())])
    assert f[PCC] == pytest.approx(1.0)
    assert f[MAE] == pytest.approx(0.0, abs=1e-12)
    assert f[COH] == pytest.approx(1.0, abs=1e-6)


def test_shifted_pair_scores_worse_everywhere():
    x = _gait_like(noise=0.02)
    y = np.roll(x, 18)  # 0.36 s at 50 Hz, half a gait cycle
    aligned, shifted = compute_features([AlignedPair(x, x.copy()),
                                         AlignedPair(x, y)])
    assert shifted[PCC] < aligned[PCC]
    assert shifted[MAE] > aligned[MAE]


def test_independent_pair_low_correlation():
    a = _gait_like(seed=1, f=1.3)
    b = _gait_like(seed=2, f=1.9)
    [f] = compute_features([AlignedPair(a, b)])
    assert abs(f[PCC]) < 0.5


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
    alone = [compute_features([p]) for p in pairs]
    assert batch.shape == (len(pairs), len(FEATURE_NAMES))
    assert batch.tobytes() == np.vstack(alone).tobytes()
    assert compute_features([]).shape == (0, len(FEATURE_NAMES))


def _per_pair_sums(pair):
    """Reference: one pair's MAE and coherence mean from its own spectra,
    by a boolean band mask."""
    a, b = pair.imu_speed, pair.video_speed
    s = _spectra(a[None], b[None], np.zeros(1, dtype=int))
    mask = (_WELCH_FREQS >= s.band[0, 0]) & (_WELCH_FREQS <= s.band[0, 1])
    cb = mask if mask.any() else _WELCH_FREQS > 0
    w = s.pxx[0, cb]
    coh = (s.coh[0, cb] * w).sum() / w.sum() if w.sum() > 0 else 0.0
    return [np.mean(np.abs(a - b)), coh]


def test_a_shuffled_batch_of_three_lengths_equals_each_pair_alone(
        monkeypatch):
    # a session's full pair and its shifted pairs share one IMU array; the
    # bands differ in width
    pairs = _session_pairs()
    x = _gait_like(237, f=1.1, seed=5)
    other = AlignedPair(x, np.roll(x, 3) + _gait_like(237, seed=6, noise=0.4))
    pairs += _window_pairs(other) + _shifted_pairs(other)
    pairs.append(AlignedPair(_gait_like(seed=7), _gait_like(seed=8, f=1.6)))
    order = np.random.default_rng(9).permutation(len(pairs))
    pairs = [pairs[i] for i in order]
    assert {len(p.imu_speed) for p in pairs} == {150, 237, 400}
    seen = {"groups": [], "widths": set()}
    real_spectra, real_bands = features._spectra, features._bands

    def spectra(a, b, imu):
        seen["groups"].append((len(a), len(b)))
        return real_spectra(a, b, imu)

    def bands(freqs, band):
        for rows, at in real_bands(freqs, band):
            seen["widths"].add(at[1].shape[1])
            yield rows, at
    monkeypatch.setattr(features, "_spectra", spectra)
    monkeypatch.setattr(features, "_bands", bands)
    batch = compute_features(pairs)
    assert len(seen["groups"]) == 3
    assert any(imu_rows < rows for imu_rows, rows in seen["groups"])
    assert len(seen["widths"]) > 1
    alone = np.vstack([compute_features([p]) for p in pairs])
    assert batch.tobytes() == alone.tobytes()
    sums = np.array([_per_pair_sums(p) for p in pairs])
    assert batch[:, [MAE, COH]].tobytes() == sums.tobytes()


@pytest.mark.parametrize("m", [1, 4])
def test_equal_length_pairs_take_three_ffts_in_all(m, monkeypatch):
    # one segment FFT per side and the IMU side's whole-row FFT, which the
    # band reads, for the whole batch
    calls = []
    real = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(np.fft, "rfft", counted)
    compute_features([AlignedPair(_gait_like(seed=k), _gait_like(seed=10 + k))
                      for k in range(m)])
    assert len(calls) == 3


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("n", [150, 151, 400, 401, 600])
def test_spectra_match_scipy(n, rows):
    a = np.array([_gait_like(n, seed=10 + r) for r in range(rows)])
    b = np.array([_gait_like(n, seed=20 + r, noise=0.3) for r in range(rows)])
    b[1:2] = a[1:2]                      # with 5 rows, an identical pair
    b[2:3] = 3 * a[2:3]                  # and a scaled copy
    kw = dict(fs=COMMON_RATE, nperseg=int(2 * COMMON_RATE))
    freqs, pxx = welch(a, **kw)
    _, pyy = welch(b, **kw)
    _, pxy = csd(a, b, **kw)
    coh = np.abs(pxy) ** 2 / pxx / pyy
    # the group pass, one row per pair, each pair with its own IMU row
    s = _spectra(a, b, np.arange(rows))
    np.testing.assert_array_equal(_WELCH_FREQS, freqs)
    for r in range(rows):
        np.testing.assert_allclose(s.pxx[r], pxx[r], rtol=1e-14, atol=0)
        np.testing.assert_allclose(s.coh[r], coh[r], rtol=1e-14, atol=0)
        assert s.pcc[r] == pytest.approx(pearsonr(a[r], b[r])[0], rel=1e-14)
        assert s.pcc[r] <= 1.0


def test_a_bin_without_welch_power_has_coherence_zero():
    # Welch's 100-sample segments stop at sample 150, so a video channel
    # still until then and moving after has no Welch power in any bin
    # while its FFT band is not empty
    x = _gait_like(170)
    still_then_moving = np.where(np.arange(170) < 150, 0.0, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [f] = compute_features([AlignedPair(x, still_then_moving)])
    assert f[COH] == 0.0
    assert np.all(np.isfinite(f))


@pytest.mark.parametrize("bad, error", [
    (AlignedPair(np.zeros(50), np.zeros(50)), PairTooShort),
    (AlignedPair(np.ones(400), _gait_like()), DegenerateChannel),
], ids=["short", "flat"])
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
    other = AlignedPair(np.zeros(60), np.zeros(60))
    with pytest.raises(PairTooShort, match="60 samples"):
        compute_features(pairs[:2] + [other, bad, pairs[2]])
    with pytest.raises(error) as first:
        compute_features([pairs[0], bad, other])
    assert str(first.value) == str(alone.value)


def test_feature_vector_array_order_matches_names():
    f = FeatureVector(1, 2, 3)
    assert list(f.as_array()) == [1, 2, 3]
    assert FEATURE_NAMES == ("pcc", "mae", "coh")
    assert FeatureVector._fields == FEATURE_NAMES
    assert f.mae == 2 and f.coh == 3


# --- Fisher selection ----------------------------------------------------------

def test_fisher_scores_match_direct_formula():
    rng = np.random.default_rng(8)
    g = rng.normal([1, 0, 0], 0.3, size=(40, 3))
    i = rng.normal([0, 0, 0], 0.3, size=(40, 3))
    rep = fisher_select(g, i)
    expected = (g.mean(0) - i.mean(0)) ** 2 / (g.var(0) + i.var(0))
    assert np.allclose(rep.normalized, expected / expected.max())


def test_fisher_selects_discriminative_feature():
    rng = np.random.default_rng(9)
    g = rng.normal(0, 0.2, size=(60, 3))
    i = rng.normal(0, 0.2, size=(60, 3))
    g[:, 0] += 3.0    # only the first feature separates the classes
    rep = fisher_select(g, i)
    assert rep.selected[0]
    assert rep.selected.sum() == 1


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_fisher_scale_invariance(seed):
    # per-feature affine rescaling must not change normalized Fisher scores
    rng = np.random.default_rng(seed)
    g = rng.normal(1.0, 1.0, size=(30, 3))
    i = rng.normal(0.0, 1.0, size=(30, 3))
    scale = rng.uniform(0.5, 5.0, 3)
    shift = rng.uniform(-2, 2, 3)
    rep1 = fisher_select(g, i)
    rep2 = fisher_select(g * scale + shift, i * scale + shift)
    assert np.allclose(rep1.normalized, rep2.normalized, atol=1e-9)


def test_fisher_needs_two_samples_per_class():
    with pytest.raises(ValueError):
        fisher_select(np.zeros((1, 3)), np.zeros((5, 3)))


def test_fisher_refuses_a_constant_feature_with_distinct_means():
    # feature 1 is constant in both classes but not equal across them:
    # its Fisher ratio is d^2 / 0, so no selection can be made
    rng = np.random.default_rng(10)
    g = rng.normal(0, 1, size=(20, 3))
    i = rng.normal(0, 1, size=(20, 3))
    g[:, 1], i[:, 1] = 1.0, 0.5
    with pytest.raises(DegenerateClass, match="feature mae"):
        fisher_select(g, i)
    # constant and equal in both classes: a score of 0, not an error
    i[:, 1] = 1.0
    assert fisher_select(g, i).normalized[1] == 0.0
