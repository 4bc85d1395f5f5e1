"""Adaptive DCT smoothing, entropy cutoff, band estimation, gait band-pass
filtering, and the wrist's Kalman pass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import filtfilt

from syncgait.errors import DegenerateSeries, InvalidBand, SeriesTooShort
from syncgait import pipeline, posture
from syncgait.pipeline import calibrate_keypoints
from syncgait.posture import (GAIN_TABLE_MAX, AdctConfig, _wrist_gains,
                              adaptive_bandpass, adct_cutoff, adct_smooth,
                              column_entropies, estimate_band,
                              histogram_entropy, mjckf_correct)
from syncgait.series import JOINT_INDEX, KeypointSeries, Series1D, fill_gaps
from syncgait.synth import SubjectParams, generate_session


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


def _numpy_histogram_entropy(column: np.ndarray, bins: int) -> float:
    """Reference: the entropy of one column's `np.histogram` over its
    min..max, summed over its non-empty bins."""
    if column.size == 0 or column.max() == column.min():
        return 0.0
    counts, _ = np.histogram(column, bins=bins,
                             range=(column.min(), column.max()))
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _on_bin_edges(rng: np.random.Generator) -> np.ndarray:
    # the edges of 32 bins over each column's range and their neighbouring
    # floats, where the uniform-bin index needs its one-ULP corrections
    cols = []
    for lo, hi in ((0.0, 1.0), (-3.0, 7.7), (0.1, 0.3), (-1e-7, 2e-7),
                   (-91.3, 4.1e5)):
        edges = np.linspace(lo, hi, 33)
        near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])
        cols.append(rng.choice(np.clip(near, lo, hi), 500))
    return np.column_stack(cols + [np.linspace(0.0, 1.0, 500)])


ENTROPY_BLOCKS = {
    "mixed": lambda rng: np.column_stack([
        np.full(300, 3.3), rng.normal(size=300),
        rng.normal(size=300).cumsum(), rng.uniform(size=300) ** 4,
        np.where(np.arange(300) == 7, 1.0, 0.0)]),
    "on_bin_edges": _on_bin_edges,
    "extreme_finite": lambda rng: np.column_stack([
        rng.uniform(-8e307, 8e307, 200), rng.uniform(-1e-300, 1e-300, 200),
        rng.choice([-8e307, 0.0, 8e307], 200),
        rng.uniform(0.0, 1e-318, 200), np.full(200, -1.7e308),
        rng.uniform(1.6e308, 1.7e308, 200)]),
    "one_row": lambda rng: rng.normal(size=(1, 3)),
}


@pytest.mark.parametrize("bins", [1, 7, 32, 256])
@pytest.mark.parametrize("block", ENTROPY_BLOCKS)
def test_column_entropies_equal_numpy_histogram_per_column(block, bins):
    v = ENTROPY_BLOCKS[block](np.random.default_rng(bins))
    want = [_numpy_histogram_entropy(c, bins).hex() for c in v.T]
    assert [h.hex() for h in column_entropies(v, bins)] == want
    assert [histogram_entropy(c, bins).hex() for c in v.T] == want


@pytest.mark.parametrize("values", [
    [1.0, np.nan, 2.0], [0.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, 5e-324]],
    ids=["nan", "inf", "minus_inf", "too_narrow_for_the_bins"])
def test_column_entropies_raise_where_numpy_histogram_raises(values):
    v = np.array(values)
    with pytest.raises(ValueError):
        np.histogram(v, bins=32, range=(v.min(), v.max()))
    with pytest.raises(ValueError):
        histogram_entropy(v, 32)
    with pytest.raises(ValueError):
        column_entropies(np.column_stack([np.arange(len(v)), v]), 32)


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


@pytest.mark.parametrize("n", [4, 120, 479, 480])
def test_adct_smooth_of_a_block_equals_each_column_alone(n):
    # a flat, a smooth, a random-walk and a noise column: different
    # entropies, so different cutoffs
    rng = np.random.default_rng(n)
    t = np.arange(n) / 60.0
    x = np.column_stack([np.full(n, 3.0), 40 * np.sin(2 * np.pi * 0.9 * t),
                         rng.normal(size=n).cumsum(), rng.normal(size=n),
                         rng.uniform(size=n) ** 4, 500 + 30 * t])
    together = adct_smooth(Series1D(x, rate=60.0)).values
    assert together.shape == (n, 6)
    for c in range(6):
        alone = adct_smooth(Series1D(x[:, c].copy(), rate=60.0)).values
        assert together[:, c].tobytes() == alone.tobytes()


def test_adct_smooth_too_short():
    with pytest.raises(SeriesTooShort):
        adct_smooth(Series1D(np.zeros(3), rate=100.0))


def test_adct_smooth_of_a_subnormal_range_is_degenerate():
    # too narrow for 32 distinct histogram edges; the other column is fine
    x = np.column_stack([np.arange(8.0), [0.0, 5e-324] * 4])
    with pytest.raises(DegenerateSeries):
        adct_smooth(Series1D(x, rate=60.0))


# --- gait band ---------------------------------------------------------------

def _power(x: np.ndarray) -> np.ndarray:
    """One-sided power spectrum of the centred row, as features._spectra's
    whole-row FFT squared."""
    return np.abs(np.fft.rfft(x - x.mean())) ** 2


def test_estimate_band_brackets_pure_tone():
    t = np.arange(1024) / 100.0
    f_lo, f_hi = estimate_band(_power(np.sin(2 * np.pi * 1.7 * t)), 1024,
                               100.0)
    assert f_lo <= 1.7 <= f_hi
    assert f_hi - f_lo < 1.0


def test_estimate_band_clamped_to_gait_range():
    rng = np.random.default_rng(0)
    f_lo, f_hi = estimate_band(_power(rng.normal(size=1024)), 1024, 100.0)
    assert 0.3 <= f_lo < f_hi <= 5.0


def test_adaptive_bandpass_passes_inband_rejects_outband():
    t = np.arange(2048) / 100.0
    inband = np.sin(2 * np.pi * 2.0 * t)
    outband = np.sin(2 * np.pi * 20.0 * t)
    kept = adaptive_bandpass(Series1D(inband, rate=100.0)).values
    killed = adaptive_bandpass(Series1D(outband, rate=100.0)).values
    assert np.std(kept[200:-200]) > 0.9 * np.std(inband)
    assert np.std(killed[200:-200]) < 0.05 * np.std(outband)


def test_adaptive_bandpass_zero_phase():
    t = np.arange(2048) / 100.0
    x = np.sin(2 * np.pi * 2.0 * t)
    y = adaptive_bandpass(Series1D(x, rate=100.0)).values
    core = slice(300, -300)
    lag = np.argmax(np.correlate(x[core], y[core], "full")) - (len(x[core]) - 1)
    assert lag == 0


def test_adaptive_bandpass_filters_columns_as_each_alone_bit_for_bit():
    # integrated-velocity-like columns: a random walk per axis
    rng = np.random.default_rng(4)
    v = rng.normal(size=(800, 3)).cumsum(axis=0)
    together = adaptive_bandpass(Series1D(v, rate=100.0)).values
    assert together.shape == v.shape
    for k in range(3):
        alone = adaptive_bandpass(Series1D(v[:, k], rate=100.0)).values
        assert together[:, k].tobytes() == alone.tobytes()


def test_adaptive_bandpass_designs_each_filter_once():
    # one design per rate
    posture._butter_band.cache_clear()
    adaptive_bandpass(Series1D(np.sin(np.arange(300) / 7.0), rate=60.0))
    adaptive_bandpass(Series1D(np.cos(np.arange(300) / 5.0), rate=60.0))
    info = posture._butter_band.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    b, a, zi = posture._butter_band(60.0)
    assert not (b.flags.writeable or a.flags.writeable or zi.flags.writeable)


@pytest.mark.parametrize("rate", [10.0, 30.0, 60.0, 100.0, 200.0])
@pytest.mark.parametrize("length", ["padlen+1", "padlen+2", 480, 800, 1201])
def test_adaptive_bandpass_is_scipy_filtfilt_bit_for_bit(rate, length):
    # the cached initial state and the hand-built odd extension must give
    # filtfilt's default "pad" method exactly; a scipy release that changes
    # its default padding or initial state fails here
    b, a, _ = posture._butter_band(rate)
    padlen = 3 * max(len(b), len(a))
    n = {"padlen+1": padlen + 1, "padlen+2": padlen + 2}.get(length, length)
    rng = np.random.default_rng(n)
    walk = rng.normal(size=(n, 3)).cumsum(axis=0)
    with_constant = np.column_stack([walk[:, 0], np.full(n, 2.5), walk[:, 1]])
    for x in (walk[:, 0], walk[:, :1], walk, with_constant):
        got = adaptive_bandpass(Series1D(x, rate=rate)).values
        want = filtfilt(b, a, x, axis=0)
        assert got.shape == want.shape == x.shape
        assert got.tobytes() == want.tobytes()


def test_adaptive_bandpass_rejects_band_beyond_nyquist():
    # at 0.5 Hz even the band's 0.3 Hz lower edge lies beyond Nyquist, and
    # 0.45 * 0.5 Hz below it: the rate holds no gait band
    with pytest.raises(InvalidBand):
        adaptive_bandpass(Series1D(np.zeros(100), rate=0.5))


# --- the wrist's Kalman pass (MJCKF) -------------------------------------------

def _wrist_track(n=240, fps=60.0, occlude=()):
    """Synthetic swinging wrist (n, 2) with 0.5 px of noise, linearly
    interpolated across the occluded frames as calibrate_keypoints feeds
    it; plus the true wrist."""
    t = np.arange(n) / fps
    el = np.stack([400 + 60 * (np.sin(2 * np.pi * 0.7 * t) * 0.4 + 0.2),
                   300 + 60 * (np.cos(2 * np.pi * 0.7 * t) * 0.1 + 0.9)],
                  axis=1)
    wr = el + 55 * np.stack([np.sin(2 * np.pi * 0.7 * t) * 0.8 + 0.1,
                             np.cos(2 * np.pi * 0.7 * t) * 0.2 + 0.9], axis=1)
    measured = np.ones(n, dtype=bool)
    measured[sorted(occlude)] = False
    noisy = wr + np.random.default_rng(0).normal(0, 0.5, (n, 2, 2))[:, 1]
    return fill_gaps(t, noisy, measured), wr


def _wrist_errors(wrist, truth, frames):
    frames = sorted(frames)
    d = wrist[frames] - truth[frames]
    return np.hypot(d[:, 0], d[:, 1])


def test_mjckf_bridges_occlusion():
    # the gap fill bridges the lost frames, and the Kalman pass keeps them
    occluded = set(range(100, 112))
    track, truth = _wrist_track(occlude=occluded)
    errs = _wrist_errors(mjckf_correct(track, 60.0), truth, occluded)
    assert max(errs) < 25.0          # bridged, not teleported to (0,0)
    assert np.mean(errs) < 12.0


def test_mjckf_leaves_clean_tracks_close():
    track, truth = _wrist_track()
    errs = _wrist_errors(mjckf_correct(track, 60.0), truth,
                         range(20, len(truth)))
    assert np.mean(errs) < 3.0


def _per_frame_mjckf(wrist, frame_rate):
    """Reference: each coordinate's 2-state constant-velocity predict and
    update per frame, with its own covariance and no shared gains."""
    dt = 1.0 / frame_rate
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = np.array([[dt ** 4 / 4, dt ** 3 / 2],
                  [dt ** 3 / 2, dt ** 2]]) * (posture.PROCESS_NOISE / dt ** 3)
    eye = np.eye(2)
    h = eye[:1]
    out = np.empty_like(wrist)
    for c in range(2):
        x, cov = np.array([wrist[0, c], 0.0]), eye * 25.0
        for idx, z in enumerate(wrist[:, c]):
            if idx > 0:
                x, cov = f @ x, f @ cov @ f.T + q
            k = cov @ h.T @ np.linalg.inv(
                h @ cov @ h.T + np.eye(1) * posture.MEASUREMENT_NOISE)
            x = x + k @ (z - h @ x)
            cov = (eye - k @ h) @ cov
            out[idx, c] = x[0]
    return out


def _gapped(frames=(), n=300, fps=60.0):
    """mjckf_correct inputs: the wrist interpolated across the given
    frames."""
    return _wrist_track(n, fps, frames)[0], fps


def _scattered(share=0.3, seed=4):
    drop = np.random.default_rng(seed).random(300) < share
    return _gapped(np.flatnonzero(drop))


MJCKF_CASES = {
    "fully_measured": lambda: _gapped(),
    "gated_at_frame_0": lambda: _gapped(range(0, 4)),
    "wrist_gap_before_fixed_point": lambda: _gapped(range(30, 60)),
    "whole_arm_gap_after_fixed_point": lambda: _gapped(range(200, 260)),
    "scattered_30pct": lambda: _scattered(),
    "30_fps": lambda: _gapped(n=200, fps=30.0),
    "10_fps": lambda: _gapped(n=100, fps=10.0),
    "10_fps_wrist_gap": lambda: _gapped(range(40, 46), n=100, fps=10.0),
    "3_frames": lambda: _gapped(n=3),
}


@pytest.mark.parametrize("case", MJCKF_CASES)
def test_mjckf_equals_per_frame_filter_bit_for_bit(case):
    args = MJCKF_CASES[case]()
    assert mjckf_correct(*args).tobytes() == _per_frame_mjckf(*args).tobytes()


def test_mjckf_past_an_unsettled_gain_table_matches_the_per_frame_filter():
    # at 12 fps the covariance never repeats bit for bit, so the table
    # stops at GAIN_TABLE_MAX and its last entry holds from there on
    fps, n = 12.0, GAIN_TABLE_MAX + 500
    gain_p, gain_v = _wrist_gains(1.0 / fps)
    assert len(gain_p) == len(gain_v) == GAIN_TABLE_MAX
    track, _ = _wrist_track(n, fps)
    wrist, reference = mjckf_correct(track, fps), _per_frame_mjckf(track, fps)
    head = slice(0, GAIN_TABLE_MAX)
    assert wrist[head].tobytes() == reference[head].tobytes()
    np.testing.assert_allclose(wrist, reference, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(120, 2, 2), (120, 3, 2), (120,), (120, 3)],
                         ids=["two_joint_track", "arm_chain_track",
                              "one_column", "three_columns"])
def test_mjckf_refuses_a_wrist_track_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"\(n, 2\) wrist track"):
        mjckf_correct(np.zeros(shape), 60.0)


def _capture():
    _, kp, _ = generate_session(SubjectParams(seed=41), seed_offset=7)
    return kp


def _with(kp, conf=None, uv=None):
    return KeypointSeries(kp.t, kp.uv if uv is None else uv,
                          kp.conf if conf is None else conf, kp.frame_rate)


def test_mjckf_of_a_fully_measured_track_reads_only_the_wrist():
    # the elbow and shoulder, moved or lost, leave the calibrated wrist as
    # it was
    kp = _capture()
    uv, conf = kp.uv.copy(), kp.conf.copy()
    for name in ("elbow_r", "shoulder_r"):
        uv[:, JOINT_INDEX[name]] += (7.0, -3.0)
        conf[150:151, JOINT_INDEX[name]] = 0.0
    wrist, measured = calibrate_keypoints(kp)
    other, other_measured = calibrate_keypoints(_with(kp, conf, uv))
    assert other.tobytes() == wrist.tobytes()
    assert measured.all() and other_measured.all()


def test_calibrated_wrist_of_a_gapped_capture_equals_the_per_frame_filter():
    # no workload capture has a lost frame, so this is the gap fill's
    # end-to-end check: gap fill, the two-column smoothing, then the MJCKF
    kp = _capture()
    conf = kp.conf.copy()
    conf[200:212, JOINT_INDEX["wrist_r"]] = 0.0
    conf[300:303, JOINT_INDEX["shoulder_r"]] = 0.0
    wrist, measured = calibrate_keypoints(_with(kp, conf))
    assert not measured[200:212].any()
    assert measured[:200].all() and measured[212:].all()
    j = JOINT_INDEX[pipeline.PHONE_WRIST]
    filled = fill_gaps(kp.t, kp.uv[:, j], measured)
    smooth = adct_smooth(Series1D(filled, rate=kp.frame_rate)).values
    assert wrist.tobytes() == mjckf_correct(smooth, kp.frame_rate).tobytes()
    assert wrist.tobytes() == _per_frame_mjckf(smooth, kp.frame_rate).tobytes()


def _chain_gains(fps):
    """Reference: the gains K (m, 12, 6) of the 12-state filter over the
    wrist, elbow and shoulder after the update of each fully measured
    frame, and its covariances P (m, 12, 12), to the first P that repeats
    its predecessor bit for bit or GAIN_TABLE_MAX frames."""
    dt = 1.0 / fps
    f = np.array([[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]],
                 dtype=float)
    qb = np.array([[dt ** 4 / 4, 0, dt ** 3 / 2, 0],
                   [0, dt ** 4 / 4, 0, dt ** 3 / 2],
                   [dt ** 3 / 2, 0, dt ** 2, 0],
                   [0, dt ** 3 / 2, 0, dt ** 2]]) * (posture.PROCESS_NOISE
                                                     / dt ** 3)
    big_f, q, eye = np.kron(np.eye(3), f), np.kron(np.eye(3), qb), np.eye(12)
    h = eye[[4 * j + k for j in range(3) for k in range(2)]]
    r = np.eye(6) * posture.MEASUREMENT_NOISE
    cov, gains, covs = eye * 25.0, [], []
    for _ in range(GAIN_TABLE_MAX):
        k = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + r)
        cov = (eye - k @ h) @ cov
        gains.append(k)
        covs.append(cov)
        if len(covs) > 1 and cov.tobytes() == covs[-2].tobytes():
            break
        cov = big_f @ cov @ big_f.T + q
    return np.stack(gains), np.stack(covs)


@pytest.mark.parametrize("fps", [5.0, 10.0, 12.0, 30.0, 59.94, 60.0, 1000.0])
def test_wrist_gains_equal_the_whole_chain_table_bit_for_bit(fps):
    # length included: the 2-state covariance repeats at the same frame as
    # the 12-state one, or neither does within GAIN_TABLE_MAX frames
    gain_p, gain_v = _wrist_gains(1.0 / fps)
    gains, _ = _chain_gains(fps)
    for k in range(2):
        assert gain_p == tuple(gains[:, k, k].tolist())
        assert gain_v == tuple(gains[:, 2 + k, k].tolist())


@pytest.mark.parametrize("fps", [5.0, 30.0, 60.0, 1000.0])
def test_measured_gains_reach_a_fixed_point_and_are_read_only(fps):
    gain_p, gain_v = _wrist_gains(1.0 / fps)
    m = len(gain_p)
    assert 2 <= m < GAIN_TABLE_MAX and len(gain_v) == m
    # the table ends at the first covariance that repeats its predecessor
    gains, covs = _chain_gains(fps)
    repeats = [covs[i].tobytes() == covs[i - 1].tobytes()
               for i in range(1, len(covs))]
    assert repeats == [False] * (m - 2) + [True]
    for k in range(2):
        assert gain_p == tuple(gains[:, k, k].tolist())
        assert gain_v == tuple(gains[:, 2 + k, k].tolist())
    assert _wrist_gains(1.0 / fps) is _wrist_gains(1.0 / fps)
    with pytest.raises(TypeError):
        gain_p[0] = 0.0


@pytest.mark.parametrize("fps", [5.0, 30.0, 60.0, 1000.0])
def test_measured_gains_couple_each_position_only_to_itself(fps):
    # position (j, k) feeds state rows 4j+k (position) and 4j+2+k
    # (velocity) alone: the 12-state filter of fully measured frames is six
    # 2-state filters, which is why one coordinate's recursion is exact
    gains, _ = _chain_gains(fps)
    coupled = np.zeros(gains.shape[1:], dtype=bool)
    for j in range(3):
        for k in range(2):
            coupled[4 * j + k, 2 * j + k] = True
            coupled[4 * j + 2 + k, 2 * j + k] = True
    assert (gains[:, ~coupled] == 0.0).all()


def test_adct_config_validation():
    with pytest.raises(ValueError):
        AdctConfig(f_base=0.0)
    with pytest.raises(ValueError):
        AdctConfig(f_base=0.9, alpha=0.2)
