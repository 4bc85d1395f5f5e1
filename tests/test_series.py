"""Series containers, db2 wavelet transform, normalization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import DegenerateSeries, SeriesTooShort
from syncgait.io import FORMAT_TAG, read_keypoint_jsonl
from syncgait.series import (JOINT_INDEX, REQUIRED_JOINTS, ImuSeries,
                             KeypointSeries, Series1D, normalize,
                             normalize_or_flag, wavelet_decompose,
                             wavelet_denoise, wavelet_reconstruct, _DB2_HI,
                             _DB2_LO)

NJ = len(REQUIRED_JOINTS)


def test_series1d_times_and_duration():
    s = Series1D(np.zeros(5), t0=1.0, rate=10.0)
    assert np.allclose(s.times, [1.0, 1.1, 1.2, 1.3, 1.4])
    assert s.duration == pytest.approx(0.4)


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
    for k in range(4):
        arrays = [t.copy(), good.copy(), good.copy(), good.copy()]
        arrays[k][1] = np.nan if k else np.inf
        with pytest.raises(ValueError):
            ImuSeries(*arrays)
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
    # the reader gives a joint a frame does not list confidence 0
    path = tmp_path / "kp.jsonl"
    rec = {"t": 0.0, "joints": {"wrist_r": [1.0, 2.0, 0.9]}}
    path.write_text(f"{FORMAT_TAG}\n{json.dumps(rec)}\n")
    kp = read_keypoint_jsonl(path)
    assert [c[0] for c in kp.joint_track("ankle_l")[1:]] == [0.0, 0.0, 0.0]
    assert [c[0] for c in kp.joint_track("wrist_r")[1:]] == [1.0, 2.0, 0.9]


def test_keypoint_frame_rejects_bad_confidence():
    for bad in (1.5, -0.1, np.nan):
        conf = np.ones((3, NJ))
        conf[1, JOINT_INDEX["wrist_r"]] = bad
        with pytest.raises(ValueError):
            _keypoints([0.0, 0.1, 0.2], conf)


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


def test_keypoint_joint_track_returns_fresh_columns():
    kp = _keypoints([0.0, 0.1, 0.2])
    t, u, v, c = kp.joint_track("elbow_l")
    j = JOINT_INDEX["elbow_l"]
    assert REQUIRED_JOINTS[j] == "elbow_l"
    assert np.array_equal(u, kp.uv[:, j, 0])
    assert np.array_equal(v, kp.uv[:, j, 1])
    t[0] = u[0] = v[0] = c[0] = -1.0
    assert kp.t[0] == 0.0 and kp.uv[0, j, 0] != -1.0
    assert kp.uv[0, j, 1] != -1.0 and kp.conf[0, j] == 1.0


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


def test_wavelet_denoise_too_short():
    with pytest.raises(SeriesTooShort):
        wavelet_denoise(Series1D(np.zeros(8), rate=100.0))


# --- normalization ----------------------------------------------------------

def test_normalize_zscore_moments():
    rng = np.random.default_rng(0)
    s = normalize(Series1D(rng.normal(3.0, 2.0, 1000)))
    assert abs(s.values.mean()) < 1e-12
    assert np.isclose(s.values.std(), 1.0)


def test_normalize_constant_raises_and_flag_variant():
    const = Series1D(np.full(10, 7.0))
    with pytest.raises(DegenerateSeries):
        normalize(const)
    flagged = normalize_or_flag(const)
    assert flagged.degenerate and np.all(flagged.values == 0.0)

