"""One-class models: dual solver properties, calibration, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait import classify
from syncgait.classify import (GAIT_GAMMA, GAIT_NU, KKT_TOL, MAX_ITER,
                               OcSvmModel, Scaler, deserialize_model,
                               fit_ocsvm_fixed, serialize_model, train_ocsvm,
                               train_ocsvm_calibrated)
from syncgait.errors import TooFewSamples


def _blob(n=80, dim=4, seed=0, spread=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0, spread, size=(n, dim))


def test_scaler_zscore_and_floor():
    x = np.column_stack([np.random.default_rng(0).normal(10, 0.01, 100),
                         np.random.default_rng(1).normal(0, 2.0, 100)])
    plain = Scaler.fit(x)
    floored = Scaler.fit(x, std_floor=0.2)
    assert floored.std[0] >= 0.2 * abs(x[:, 0].mean())
    assert np.isclose(floored.std[1], plain.std[1])
    z = plain.transform(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)


def test_ocsvm_nu_controls_outlier_fraction():
    # the nu-property: at most a nu fraction of training points fall outside,
    # and at least a nu fraction are support vectors
    x = _blob(n=200, seed=3)
    for nu in (0.05, 0.1, 0.2):
        model = fit_ocsvm_fixed(x, nu=nu, gamma=0.5)
        outside = float(np.mean(model.scores(x) < 0))
        assert outside <= nu + 0.03
        assert len(model.support_vectors) >= nu * len(x) - 1


def test_ocsvm_dual_constraints_hold():
    x = _blob(n=100, seed=5)
    nu = 0.1
    model = fit_ocsvm_fixed(x, nu=nu, gamma=1.0)
    c = 1.0 / (nu * 100)
    assert np.all(model.dual_coef >= -1e-12)
    assert np.all(model.dual_coef <= c + 1e-9)
    assert model.dual_coef.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("nu", [2.0, -0.5, 0.0])
def test_ocsvm_nu_outside_unit_interval_is_refused(nu):
    with pytest.raises(ValueError, match="nu must lie in"):
        fit_ocsvm_fixed(_blob(n=20), nu=nu, gamma=0.5)


def test_ocsvm_nu_of_one_fits_every_row_at_its_bound():
    model = fit_ocsvm_fixed(_blob(n=20), nu=1.0, gamma=0.5)
    assert model.dual_coef.tolist() == [1.0 / 20] * 20


def test_ocsvm_accepts_center_rejects_far_point():
    x = _blob(seed=1)
    model = fit_ocsvm_fixed(x, nu=0.1, gamma=0.5)
    assert model.score(x.mean(axis=0)) > 0
    assert model.score(x.mean(axis=0) + 50.0) < 0


def test_train_ocsvm_rejects_far_outliers():
    x = _blob(n=120, seed=7)
    model = train_ocsvm(x)
    rng = np.random.default_rng(0)
    outliers = rng.uniform(-8, 8, size=(300, x.shape[1]))
    far = outliers[np.linalg.norm(outliers, axis=1) > 5]
    assert np.mean(model.scores(far) < 0) > 0.9
    assert np.mean(model.scores(x) >= 0) > 0.8


def test_train_ocsvm_needs_ten_samples():
    with pytest.raises(TooFewSamples):
        train_ocsvm(np.zeros((9, 3)))


# --- the gait model: one fit at the fixed hyperparameters ------------------------

_TRAIN_SETS = {
    "blob": _blob(n=80, seed=0),
    "small": _blob(n=12, dim=3, seed=1),
    "two_clusters": np.vstack([_blob(n=30, dim=3, seed=3),
                               _blob(n=10, dim=3, seed=4) + 6.0]),
    "heavy_tails": np.random.default_rng(0).standard_t(2, size=(30, 2)),
}


@pytest.mark.parametrize("name", list(_TRAIN_SETS))
def test_train_ocsvm_is_the_fit_at_the_gait_constants(name):
    x = _TRAIN_SETS[name]
    assert (serialize_model(train_ocsvm(x))
            == serialize_model(fit_ocsvm_fixed(x, GAIT_NU, GAIT_GAMMA)))


# --- solver step: Python floats against numpy scalars ---------------------------

def _numpy_scalar_dual(k, nu):
    """The solver loop with its scalar step on numpy scalars; also counts
    the steps that took the zero-denominator branch and the bound clamp."""
    n = len(k)
    c = 1.0 / (nu * n)
    alpha = np.full(n, 1.0 / n)
    flat = clamped = 0
    for _ in range(MAX_ITER):
        grad = k @ alpha
        up_mask = alpha < c - 1e-15
        dn_mask = alpha > 1e-15
        i = int(np.argmax(np.where(dn_mask, grad, -np.inf)))
        j = int(np.argmin(np.where(up_mask, grad, np.inf)))
        gap = grad[i] - grad[j]
        if gap < KKT_TOL:
            break
        denom = k[i, i] + k[j, j] - 2.0 * k[i, j]
        flat += not denom > 1e-12
        step = gap / denom if denom > 1e-12 else alpha[i]
        clamped += c - alpha[j] < min(step, alpha[i])
        step = min(step, alpha[i], c - alpha[j])
        alpha[i] -= step
        alpha[j] += step
    return alpha, flat, clamped


def _rbf_of(x, gamma):
    z = Scaler.fit(x).transform(x)
    return classify._rbf(z, z, gamma / z.shape[1])


# Points 0 and 1 are one point to each other (k_00 + k_11 - 2 k_01 = 0) but
# not to points 2 and 3, so the first step takes the zero-denominator
# branch. No positive semi-definite kernel has such a pair: a zero distance
# in feature space makes two rows, and so their gradients, equal, and the
# gap 0 (duplicate rows stop the solver), so the matrix is hand-built.
_FLAT_PAIR = np.array([[1.0, 1.0, 0.0, 0.0],
                       [1.0, 1.0, 1.0, 1.0],
                       [0.0, 1.0, 1.0, 0.5],
                       [0.0, 1.0, 0.5, 1.0]])


@pytest.mark.parametrize("k, nu, branch", [
    (_rbf_of(_blob(n=60, seed=2), 0.5), 0.05, None),
    (_rbf_of(_blob(n=12, dim=3, seed=4), 0.1), 0.2, "clamped"),
    (_FLAT_PAIR, 0.25, "flat")], ids=["free", "bound_active", "zero_denom"])
def test_python_float_step_equals_numpy_scalar_step(k, nu, branch):
    alpha = classify._solve_ocsvm_dual(k, 1.0 / (nu * len(k)))
    want, flat, clamped = _numpy_scalar_dual(k, nu)
    assert alpha.tobytes() == want.tobytes()
    assert {"flat": flat > 0, "clamped": clamped > 0}.get(branch, True)


def test_calibrated_threshold_sits_between_classes():
    rng = np.random.default_rng(11)
    pos = rng.normal(0, 0.5, size=(60, 3))
    neg = rng.normal(4, 0.5, size=(30, 3))
    model = train_ocsvm_calibrated(pos, neg)
    assert np.mean(model.scores(pos) >= 0) > 0.9
    assert np.mean(model.scores(neg) < 0) > 0.9


def test_calibrated_validation():
    pos = np.zeros((20, 3))
    with pytest.raises(TooFewSamples):
        train_ocsvm_calibrated(pos[:5], pos)
    with pytest.raises(TooFewSamples):
        train_ocsvm_calibrated(pos, pos[:1])


# --- serialization --------------------------------------------------------------

def test_ocsvm_serialization_round_trip_exact():
    x = _blob(seed=4)
    model = fit_ocsvm_fixed(x, nu=0.1, gamma=0.5)
    back = deserialize_model(serialize_model(model))
    assert isinstance(back, OcSvmModel)
    assert np.array_equal(back.support_vectors, model.support_vectors)
    assert np.array_equal(back.dual_coef, model.dual_coef)
    assert back.rho == model.rho
    assert back.nu == model.nu and back.gamma == model.gamma
    probe = _blob(n=10, seed=9)
    assert np.array_equal(back.scores(probe), model.scores(probe))


def test_serialized_blob_is_tagged_and_versioned():
    blob = serialize_model(fit_ocsvm_fixed(_blob(), nu=0.1, gamma=0.5))
    assert blob[:8] == b"SGMODEL1"
    with pytest.raises(ValueError):
        deserialize_model(b"NOTATAG!" + blob[8:])


@pytest.mark.parametrize("keep", [4, 8, 20, 33, 34, 40, 60, -1])
def test_truncated_blob_raises_value_error(keep):
    # cuts in the tag, the parameters, an array header and an array payload
    blob = serialize_model(fit_ocsvm_fixed(_blob(), nu=0.1, gamma=0.5))
    with pytest.raises(ValueError):
        deserialize_model(blob[:keep])


def _model(sv, coef, mean, std, rho=0.1):
    return OcSvmModel(np.asarray(sv, dtype=float), np.asarray(coef, dtype=float),
                      rho=rho, nu=0.1, gamma=0.5,
                      scaler=Scaler(np.asarray(mean, dtype=float),
                                    np.asarray(std, dtype=float)))


_SV = np.zeros((4, 3))
_COEF = np.full(4, 0.25)


@pytest.mark.parametrize("blob", [
    serialize_model(_model(_SV, _COEF, np.zeros(2), np.ones(2))),
    serialize_model(_model(_SV, _COEF[:3], np.zeros(3), np.ones(3))),
    serialize_model(_model(_SV[0], _COEF[:1], np.zeros(3), np.ones(3))),
    serialize_model(_model(_SV, _COEF, np.zeros(3), np.ones(3), rho=np.nan)),
    serialize_model(_model(_SV + np.inf, _COEF, np.zeros(3), np.ones(3))),
    serialize_model(_model(_SV, _COEF, np.zeros(3), np.zeros(3))),
    serialize_model(_model(_SV, _COEF, np.zeros(3), np.ones(3))) + b"\0",
], ids=["scaler_narrower", "coef_shorter", "one_dim_vectors", "nan_rho",
        "inf_vector", "zero_std", "trailing_byte"])
def test_inconsistent_blob_raises_value_error(blob):
    with pytest.raises(ValueError):
        deserialize_model(blob)


_GOOD_BLOB = serialize_model(fit_ocsvm_fixed(_blob(n=12, dim=2), nu=0.2,
                                             gamma=1.0))


@given(st.binary(max_size=200)
       | st.binary(max_size=200).map(lambda b: _GOOD_BLOB[:8] + b)
       | st.tuples(st.integers(0, len(_GOOD_BLOB) - 1),
                   st.integers(0, 255)).map(
           lambda p: _GOOD_BLOB[:p[0]] + bytes([p[1]])
           + _GOOD_BLOB[p[0] + 1:]))
@settings(max_examples=300, deadline=None)
def test_any_bytes_load_as_model_or_raise_value_error(blob):
    try:
        model = deserialize_model(blob)
    except ValueError:
        return
    assert isinstance(model, OcSvmModel)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_serialization_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(40, int(rng.integers(2, 7))))
    model = fit_ocsvm_fixed(x, nu=0.1, gamma=1.0)
    back = deserialize_model(serialize_model(model))
    probe = rng.normal(size=(5, x.shape[1]))
    assert np.array_equal(back.scores(probe), model.scores(probe))
