"""Series containers, db2 wavelet transform, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import DegenerateSeries, SeriesTooShort
from syncgait.io import read_keypoint_npy
from syncgait.series import (DENOISE_LEVELS, JOINT_INDEX, REQUIRED_JOINTS,
                             ImuSeries, KeypointSeries, Series1D, fill_gaps, normalize,
                             wavelet_decompose, wavelet_denoise,
                             wavelet_reconstruct, _DB2_HI, _DB2_LO)

NJ = len(REQUIRED_JOINTS)


def test_series1d_times_and_duration():
    s = Series1D(np.zeros(5), t0=1.0, rate=10.0)
    assert np.allclose(s.times, [1.0, 1.1, 1.2, 1.3, 1.4])
    assert s.times[-1] - s.times[0] == pytest.approx(0.4)


def test_series1d_rejects_nonfinite():
    with pytest.raises(ValueError):
        Series1D(np.array([1.0, np.nan]))


def test_imu_series_rejects_non_monotone_time():
    t = np.array([0.0, 0.2, 0.1])
    with pytest.raises(ValueError):
        ImuSeries(t, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))


def test_imu_series_rejects_nonfinite_and_bad_shapes():
    t = np.arange(4) / 100.0
    good = np.zeros((4, 3))
    for k in range(3):   # t, acc, gyro; the unread mag is not checked
        arrays = [t.copy(), good.copy(), good.copy(), good.copy()]
        arrays[k][1] = np.nan if k else np.inf
        with pytest.raises(ValueError):
            ImuSeries(*arrays)
    assert np.isnan(ImuSeries(t, good, good, np.full((4, 3), np.nan)).mag).all()
    with pytest.raises(ValueError):
        ImuSeries(t, np.zeros((3, 3)), good, good)
    with pytest.raises(ValueError):
        ImuSeries(t, good, np.zeros((4, 2)), good)


def _keypoints(t, conf=None):
    t = np.asarray(t, dtype=float)
    if conf is None:
        conf = np.ones((len(t), NJ))
    uv = np.arange(len(t) * NJ * 2, dtype=float).reshape(len(t), NJ, 2)
    return KeypointSeries(t, uv, conf)


def test_keypoint_frame_fills_required_joints(tmp_path):
    # each joint's u, v and confidence columns land in its JOINT_INDEX slot
    path = tmp_path / "kp.npy"
    row = np.zeros((1, 1 + 3 * NJ))
    j = JOINT_INDEX["wrist_r"]
    row[0, 1 + 3 * j:4 + 3 * j] = [1.0, 2.0, 0.9]
    np.save(path, row, allow_pickle=False)
    kp = read_keypoint_npy(path)
    for name, expected in (("ankle_l", [0.0, 0.0, 0.0]),
                           ("wrist_r", [1.0, 2.0, 0.9])):
        j = JOINT_INDEX[name]
        assert [*kp.uv[0, j], kp.conf[0, j]] == expected


def test_keypoint_frame_rejects_bad_confidence():
    for bad in (1.5, -0.1, np.nan):
        conf = np.ones((3, NJ))
        conf[1, JOINT_INDEX["wrist_r"]] = bad
        with pytest.raises(ValueError):
            _keypoints([0.0, 0.1, 0.2], conf)


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
def test_series_rates_must_be_positive_and_finite(rate):
    t, zeros = np.arange(3) / 100.0, np.zeros((3, 3))
    with pytest.raises(ValueError):
        ImuSeries(t, zeros, zeros, zeros, sample_rate=rate)
    with pytest.raises(ValueError):
        KeypointSeries(t, np.zeros((3, NJ, 2)), np.ones((3, NJ)),
                       frame_rate=rate)
    with pytest.raises(ValueError):
        Series1D(np.zeros(3), rate=rate)


def test_series_times_may_span_more_than_the_largest_float():
    t, zeros = np.array([-1e308, 1e308]), np.zeros((2, 3))
    assert len(ImuSeries(t, zeros, zeros, zeros)) == 2
    assert len(KeypointSeries(t, np.zeros((2, NJ, 2)), np.ones((2, NJ)))) == 2


def test_keypoint_series_rejects_non_monotone():
    with pytest.raises(ValueError):
        _keypoints([0.1, 0.1])
    with pytest.raises(ValueError):
        _keypoints([0.2, 0.1])


def test_keypoint_series_rejects_bad_shapes_and_nonfinite():
    kp = _keypoints([0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        KeypointSeries(kp.t, kp.uv[:, :-1], kp.conf[:, :-1])
    with pytest.raises(ValueError):
        KeypointSeries(kp.t[:2], kp.uv, kp.conf)
    with pytest.raises(ValueError):
        KeypointSeries(kp.t, kp.uv, kp.conf, frame_rate=0.0)
    for field in ("t", "uv"):
        arrays = {"t": kp.t.copy(), "uv": kp.uv.copy(), "conf": kp.conf}
        arrays[field].flat[1] = np.nan
        with pytest.raises(ValueError):
            KeypointSeries(**arrays)


# --- db2 wavelet: filter identities and perfect reconstruction ---------------

def test_db2_filter_orthonormality():
    # [TRIVIAL] quadrature-mirror identities of the 4-tap filter pair
    assert np.isclose(_DB2_LO @ _DB2_LO, 1.0)
    assert np.isclose(_DB2_HI @ _DB2_HI, 1.0)
    assert np.isclose(_DB2_LO @ _DB2_HI, 0.0)
    # two vanishing moments of the high-pass branch
    assert np.isclose(_DB2_HI.sum(), 0.0)
    assert np.isclose(_DB2_HI @ np.arange(4.0), 0.0, atol=1e-12)
    assert np.isclose(_DB2_LO.sum(), np.sqrt(2.0))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from([16, 64, 256]))
@settings(max_examples=30, deadline=None)
def test_wavelet_perfect_reconstruction(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    approx, details = wavelet_decompose(x, levels=3)
    back = wavelet_reconstruct(approx, details)
    assert np.allclose(back, x, atol=1e-10)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_wavelet_energy_preserved(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=128)
    approx, details = wavelet_decompose(x, levels=4)
    energy = (approx ** 2).sum() + sum((d ** 2).sum() for d in details)
    assert np.isclose(energy, (x ** 2).sum(), rtol=1e-10)


def test_wavelet_denoise_reduces_noise():
    rng = np.random.default_rng(3)
    t = np.arange(512) / 100.0
    clean = np.sin(2 * np.pi * 1.0 * t)
    noisy = clean + rng.normal(0, 0.4, len(t))
    den = wavelet_denoise(Series1D(noisy, rate=100.0)).values
    assert np.mean((den - clean) ** 2) < 0.5 * np.mean((noisy - clean) ** 2)


@pytest.mark.parametrize("k", [1, 3, 9])
@pytest.mark.parametrize("n", [16, 350, 500, 800, 801, 1200])
def test_wavelet_denoise_of_a_block_equals_each_column_alone(n, k):
    # columns of different scales, so each has its own noise estimate
    rng = np.random.default_rng(n + k)
    t = np.arange(n) / 100.0
    x = (np.sin(2 * np.pi * 1.1 * t)[:, None]
         + rng.normal(size=(n, k)) * rng.uniform(0.05, 5.0, k))
    together = wavelet_denoise(Series1D(x, rate=100.0)).values
    assert together.shape == (n, k)
    for c in range(k):
        alone = wavelet_denoise(Series1D(x[:, c].copy(), rate=100.0)).values
        assert together[:, c].tobytes() == alone.tobytes()


@pytest.mark.parametrize("n, levels", [(350, 1), (500, 2), (800, 4),
                                       (801, 0), (1200, 4)])
def test_wavelet_decomposition_stops_at_the_first_odd_level(n, levels):
    x = np.random.default_rng(n).normal(size=n)
    assert len(wavelet_decompose(x, DENOISE_LEVELS)[1]) == levels
    if levels == 0:   # returned as it came
        assert wavelet_denoise(Series1D(x)).values.tobytes() == x.tobytes()


def test_wavelet_denoise_too_short():
    with pytest.raises(SeriesTooShort):
        wavelet_denoise(Series1D(np.zeros(8), rate=100.0))


# --- normalization ----------------------------------------------------------

def test_normalize_zscore_moments():
    rng = np.random.default_rng(0)
    s = normalize(Series1D(rng.normal(3.0, 2.0, 1000)))
    assert abs(s.values.mean()) < 1e-12
    assert np.isclose(s.values.std(), 1.0)


def test_normalize_constant_raises():
    with pytest.raises(DegenerateSeries):
        normalize(Series1D(np.full(10, 7.0)))



# --- gap filling --------------------------------------------------------------

def test_fill_gaps_interpolates_each_column_across_invalid_samples():
    t = np.arange(6) * 0.1
    x = np.column_stack([np.arange(6.0), 10.0 * np.arange(6.0) ** 2])
    before = x.copy()
    valid = np.array([True, False, False, True, True, False])
    out = fill_gaps(t, x, valid)
    # linear between valid neighbours, held past the last valid sample
    assert np.allclose(out, [[0, 0], [1, 30], [2, 60], [3, 90], [4, 160],
                             [4, 160]])
    assert np.array_equal(x, before)               # the input is not written
    assert np.array_equal(fill_gaps(t, x[:, 1], valid), out[:, 1])   # 1-D


def test_fill_gaps_returns_the_input_when_all_or_no_samples_are_valid():
    t = np.arange(5.0)
    x = np.ones((5, 3))
    assert fill_gaps(t, x, np.ones(5, dtype=bool)) is x
    assert fill_gaps(t, x, np.zeros(5, dtype=bool)) is x
    col = x[:, 0]
    assert fill_gaps(t, col, np.zeros(5, dtype=bool)) is col


@pytest.mark.parametrize("seed", range(5))
def test_fill_gaps_equals_interpolating_the_whole_timeline_bit_for_bit(seed):
    # valid samples are knots of np.interp, which returns them exactly
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 0.1, 200))
    x = rng.normal(0.0, 1e3, 200)
    valid = rng.random(200) < 0.6
    out = fill_gaps(t, x, valid)
    assert out.tobytes() == np.interp(t, t[valid], x[valid]).tobytes()
    assert out[valid].tobytes() == x[valid].tobytes()
