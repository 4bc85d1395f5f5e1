"""Adaptive DCT smoothing, entropy cutoff, band estimation, band-pass
filtering, and cooperative Kalman occlusion bridging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import InvalidBand, SeriesTooShort
from syncgait import posture
from syncgait.posture import (ARM_CHAIN, GAIN_TABLE_MAX, AdctConfig,
                              SpectralBand, _ChainFilter, _measured_gains,
                              adaptive_bandpass, adct_cutoff, adct_smooth,
                              estimate_band, histogram_entropy, mjckf_correct)
from syncgait.series import (JOINT_INDEX, MISSING_CONF, REQUIRED_JOINTS,
                             KeypointSeries, Series1D)


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


def test_adaptive_bandpass_filters_columns_as_each_alone_bit_for_bit():
    # integrated-velocity-like columns: a random walk per axis
    rng = np.random.default_rng(4)
    v = rng.normal(size=(800, 3)).cumsum(axis=0)
    band = SpectralBand(0.3, 5.0)
    together = adaptive_bandpass(Series1D(v, rate=100.0), band).values
    assert together.shape == v.shape
    for k in range(3):
        alone = adaptive_bandpass(Series1D(v[:, k], rate=100.0), band).values
        assert together[:, k].tobytes() == alone.tobytes()


def test_adaptive_bandpass_designs_each_filter_once():
    band = SpectralBand(0.7, 3.5)
    x = Series1D(np.sin(np.arange(300) / 7.0), rate=60.0)
    posture._butter_band.cache_clear()
    adaptive_bandpass(x, band)
    adaptive_bandpass(Series1D(np.cos(np.arange(300) / 5.0), rate=60.0), band)
    info = posture._butter_band.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    b, a = posture._butter_band(band, 60.0)
    assert not b.flags.writeable and not a.flags.writeable


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
    assert out.conf[50, JOINT_INDEX["wrist_r"]] == pytest.approx(MISSING_CONF)


def test_mjckf_leaves_clean_tracks_close():
    kp, truth = _arm_series()
    errs = _wrist_errors(mjckf_correct(kp), truth, range(20, len(truth)))
    assert np.mean(errs) < 3.0


def _per_frame_mjckf(kp):
    """Reference: the full predict/update per frame, no shared gains."""
    cols = [JOINT_INDEX[name] for name in ARM_CHAIN]
    track = kp.uv[:, cols]
    conf = kp.conf[:, cols]
    limb = np.array([np.linalg.norm(track[0, j + 1] - track[0, j])
                     for j in range(len(cols) - 1)])
    filt = _ChainFilter(track[0], limb, 1.0 / kp.frame_rate)
    uv = kp.uv.copy()
    for idx in range(len(kp)):
        if idx > 0:
            filt.predict()
        measured = {j: track[idx, j] for j in range(filt.nj)
                    if conf[idx, j] >= MISSING_CONF}
        filt.update_positions(measured)
        if len(measured) < filt.nj:
            filt.update_coupling()
        for j in range(filt.nj - 1):
            if j in measured and j + 1 in measured:
                filt.refresh_limb(j, float(np.linalg.norm(
                    measured[j + 1] - measured[j])))
        for j in range(filt.nj):
            uv[idx, cols[j]] = filt.pos(j)
    return uv


def _gate(kp, frames, joints=("wrist_r", "elbow_r", "shoulder_r")):
    conf = kp.conf.copy()
    for joint in joints:
        conf[frames, JOINT_INDEX[joint]] = 0.1
    return KeypointSeries(kp.t, kp.uv, conf, kp.frame_rate)


def _scattered(kp, share=0.3, seed=4):
    conf = kp.conf.copy()
    cols = [JOINT_INDEX[name] for name in ARM_CHAIN]
    drop = np.random.default_rng(seed).random((len(kp), len(cols))) < share
    conf[:, cols] = np.where(drop, 0.1, conf[:, cols])
    return KeypointSeries(kp.t, kp.uv, conf, kp.frame_rate)


MJCKF_CASES = {
    "fully_measured": lambda: _arm_series(n=300)[0],
    "gated_at_frame_0": lambda: _gate(_arm_series(n=300)[0], slice(0, 4)),
    "wrist_gap_before_fixed_point": lambda: _gate(
        _arm_series(n=300)[0], slice(30, 60), ("wrist_r",)),
    "shoulder_gap_at_88": lambda: _gate(
        _arm_series(n=300)[0], slice(88, 91), ("shoulder_r",)),
    "whole_arm_gap_after_fixed_point": lambda: _gate(
        _arm_series(n=300)[0], slice(200, 260)),
    "scattered_30pct": lambda: _scattered(_arm_series(n=300)[0]),
    "30_fps": lambda: _arm_series(n=200, fps=30.0)[0],
    "3_frames": lambda: _arm_series(n=3)[0],
}


@pytest.mark.parametrize("case", MJCKF_CASES)
def test_mjckf_equals_per_frame_filter_bit_for_bit(case):
    kp = MJCKF_CASES[case]()
    assert mjckf_correct(kp).uv.tobytes() == _per_frame_mjckf(kp).tobytes()


@pytest.fixture
def short_gain_table(monkeypatch):
    _measured_gains.cache_clear()
    monkeypatch.setattr(posture, "GAIN_TABLE_MAX", 20)
    yield
    _measured_gains.cache_clear()


def test_mjckf_past_an_unsettled_gain_table_runs_the_full_update(
        short_gain_table):
    kp = _arm_series(n=120)[0]
    assert len(_measured_gains(1.0 / kp.frame_rate)[0]) == 20
    assert mjckf_correct(kp).uv.tobytes() == _per_frame_mjckf(kp).tobytes()


@pytest.mark.parametrize("fps", [5.0, 30.0, 60.0, 1000.0])
def test_measured_gains_reach_a_fixed_point_and_are_read_only(fps):
    gains, covs = _measured_gains(1.0 / fps)
    assert 2 <= len(gains) == len(covs) < GAIN_TABLE_MAX
    assert covs[-1].tobytes() == covs[-2].tobytes()
    assert gains.shape[1:] == (12, 6) and covs.shape[1:] == (12, 12)
    for table in (gains, covs):
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0


def test_adct_config_validation():
    with pytest.raises(ValueError):
        AdctConfig(f_base=0.0)
    with pytest.raises(ValueError):
        AdctConfig(f_base=0.9, alpha=0.2)
