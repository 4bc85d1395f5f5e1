"""Adaptive DCT smoothing, entropy cutoff, band estimation, band-pass
filtering, and cooperative Kalman occlusion bridging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import InvalidBand, SeriesTooShort, UnknownJoint
from syncgait.posture import (AdctConfig, MjckfConfig, SpectralBand,
                              adaptive_bandpass, adct_cutoff, adct_smooth,
                              estimate_band, histogram_entropy, mjckf_correct)
from syncgait.series import (JOINT_INDEX, REQUIRED_JOINTS, KeypointSeries,
                             Series1D)


# --- histogram entropy ---------------------------------------------------------

def shannon_entropy_oracle(values: np.ndarray, bins: int) -> float:
    """Independent implementation: explicit probability sum."""
    counts, _ = np.histogram(values, bins=bins,
                             range=(values.min(), values.max()))
    total = counts.sum()
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def test_entropy_uniform_is_log2_bins():
    v = np.arange(1024, dtype=float)
    assert histogram_entropy(v, 32) == pytest.approx(5.0, abs=1e-9)


def test_entropy_constant_is_zero():
    assert histogram_entropy(np.full(100, 3.3), 32) == 0.0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_entropy_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=300)
    assert histogram_entropy(v, 64) == pytest.approx(
        shannon_entropy_oracle(v, 64), abs=1e-12)


# --- adaptive cutoff ------------------------------------------------------------

def test_adct_cutoff_formula_against_independent_entropy():
    # [DERIVED] cutoff = floor(n (f_base + alpha H / log2 n)) on 20 random
    # series, with the entropy recomputed independently
    rng = np.random.default_rng(11)
    cfg = AdctConfig(f_base=0.1, alpha=0.2, bins=256)
    for _ in range(20):
        n = int(rng.integers(64, 2048))
        v = rng.normal(size=n)
        h = shannon_entropy_oracle(v, 256)
        expected = max(1, min(n, math.floor(n * (0.1 + 0.2 * h / math.log2(n)))))
        assert adct_cutoff(n, histogram_entropy(v, 256), cfg) == expected


def test_adct_cutoff_frozen_example():
    # [DERIVED] n=512, H=6.0 bits, f_base=0.1, alpha=0.2, so
    # k = floor(512 * (0.1 + 0.2 * 6/9)) = floor(119.466) = 119
    assert adct_cutoff(512, 6.0, AdctConfig(f_base=0.1, alpha=0.2)) == 119


def test_adct_cutoff_monotone_in_entropy():
    rng = np.random.default_rng(5)
    cfg = AdctConfig()
    for _ in range(100):
        n = int(rng.integers(16, 4096))
        h1, h2 = sorted(rng.uniform(0.0, math.log2(n), 2))
        assert adct_cutoff(n, h1, cfg) <= adct_cutoff(n, h2, cfg)


def test_adct_smooth_constant_identity_exact():
    s = Series1D(np.full(128, 2.5), rate=100.0)
    out = adct_smooth(s)
    assert np.allclose(out.values, 2.5, atol=1e-12)


def test_adct_smooth_removes_high_frequency():
    t = np.arange(256) / 100.0
    slow = np.sin(2 * np.pi * 0.5 * t)
    fast = 0.3 * np.sin(2 * np.pi * 40.0 * t)
    out = adct_smooth(Series1D(slow + fast, rate=100.0),
                      AdctConfig(f_base=0.05, alpha=0.0)).values
    assert np.mean((out - slow) ** 2) < 0.1 * np.mean(fast ** 2)


def test_adct_smooth_too_short():
    with pytest.raises(SeriesTooShort):
        adct_smooth(Series1D(np.zeros(3), rate=100.0))


# --- spectral band ---------------------------------------------------------------

def test_estimate_band_brackets_pure_tone():
    t = np.arange(1024) / 100.0
    s = Series1D(np.sin(2 * np.pi * 1.7 * t), rate=100.0)
    band = estimate_band(s)
    assert band.f_lo <= 1.7 <= band.f_hi
    assert band.f_hi - band.f_lo < 1.0


def test_estimate_band_clamped_to_gait_range():
    rng = np.random.default_rng(0)
    s = Series1D(rng.normal(size=1024), rate=100.0)
    band = estimate_band(s)
    assert band.f_lo >= 0.3 and band.f_hi <= 5.0


def test_spectral_band_validation():
    with pytest.raises(InvalidBand):
        SpectralBand(2.0, 1.0)


def test_adaptive_bandpass_passes_inband_rejects_outband():
    t = np.arange(2048) / 100.0
    inband = np.sin(2 * np.pi * 2.0 * t)
    outband = np.sin(2 * np.pi * 20.0 * t)
    band = SpectralBand(1.0, 4.0)
    kept = adaptive_bandpass(Series1D(inband, rate=100.0), band).values
    killed = adaptive_bandpass(Series1D(outband, rate=100.0), band).values
    assert np.std(kept[200:-200]) > 0.9 * np.std(inband)
    assert np.std(killed[200:-200]) < 0.05 * np.std(outband)


def test_adaptive_bandpass_zero_phase():
    t = np.arange(2048) / 100.0
    x = np.sin(2 * np.pi * 2.0 * t)
    y = adaptive_bandpass(Series1D(x, rate=100.0), SpectralBand(1.0, 4.0)).values
    core = slice(300, -300)
    lag = np.argmax(np.correlate(x[core], y[core], "full")) - (len(x[core]) - 1)
    assert lag == 0


def test_adaptive_bandpass_rejects_band_beyond_nyquist():
    with pytest.raises(InvalidBand):
        adaptive_bandpass(Series1D(np.zeros(100), rate=10.0),
                          SpectralBand(1.0, 6.0))


# --- cooperative Kalman occlusion bridging ----------------------------------------

def _arm_series(n=240, fps=60.0, occlude=(), seed=0):
    """Synthetic swinging arm chain; selected wrist frames lose confidence."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fps
    sh = np.stack([400 + 0 * t, 300 + 0 * t], axis=1)
    el = sh + 60 * np.stack([np.sin(2 * np.pi * 0.7 * t) * 0.4 + 0.2,
                             np.cos(2 * np.pi * 0.7 * t) * 0.1 + 0.9], axis=1)
    wr = el + 55 * np.stack([np.sin(2 * np.pi * 0.7 * t) * 0.8 + 0.1,
                             np.cos(2 * np.pi * 0.7 * t) * 0.2 + 0.9], axis=1)
    noise = rng.normal(0, 0.5, (n, 2, 2))      # frame, side (l, r), axis
    uv = np.zeros((n, len(REQUIRED_JOINTS), 2))
    conf = np.zeros((n, len(REQUIRED_JOINTS)))
    for k, side in enumerate("lr"):
        for joint, track in (("shoulder", sh), ("elbow", el),
                             ("wrist", wr + noise[:, k])):
            uv[:, JOINT_INDEX[f"{joint}_{side}"]] = track
            conf[:, JOINT_INDEX[f"{joint}_{side}"]] = 1.0
    conf[sorted(occlude), JOINT_INDEX["wrist_r"]] = 0.05
    return KeypointSeries(t, uv, conf, frame_rate=fps), wr


def _wrist_errors(kp, truth, frames):
    frames = sorted(frames)
    d = kp.uv[frames, JOINT_INDEX["wrist_r"]] - truth[frames]
    return np.hypot(d[:, 0], d[:, 1])


def test_mjckf_bridges_occlusion():
    occluded = set(range(100, 112))
    kp, truth = _arm_series(occlude=occluded)
    errs = _wrist_errors(mjckf_correct(kp), truth, occluded)
    assert max(errs) < 25.0          # bridged, not teleported to (0,0)
    assert np.mean(errs) < 12.0


def test_mjckf_marks_bridged_confidence():
    kp, _ = _arm_series(occlude={50})
    out = mjckf_correct(kp)
    assert out.conf[50, JOINT_INDEX["wrist_r"]] == pytest.approx(
        MjckfConfig().conf_gate)


def test_mjckf_leaves_clean_tracks_close():
    kp, truth = _arm_series()
    errs = _wrist_errors(mjckf_correct(kp), truth, range(20, len(truth)))
    assert np.mean(errs) < 3.0


def test_mjckf_unknown_joint():
    n = 10
    kp = KeypointSeries(np.arange(n) / 60.0,
                        np.zeros((n, len(REQUIRED_JOINTS), 2)),
                        np.zeros((n, len(REQUIRED_JOINTS))), frame_rate=60.0)
    with pytest.raises(UnknownJoint):
        mjckf_correct(kp, MjckfConfig(joint_chain=("wrist", "elbow", "spine")))


def test_adct_config_validation():
    with pytest.raises(ValueError):
        AdctConfig(f_base=0.0)
    with pytest.raises(ValueError):
        AdctConfig(f_base=0.9, alpha=0.2)
