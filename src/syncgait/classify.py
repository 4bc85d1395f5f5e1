"""One-class classifier: OC-SVM (dual solver) and its model file format.

The OC-SVM dual  min 1/2 a'Ka  s.t. 0 <= a_i <= 1/(nu n), sum a = 1  is solved
by SMO-style pairwise coordinate updates to a KKT tolerance. Hyperparameters
come from a deterministic grid search scored on held-out genuine acceptance
at a fixed synthetic-outlier rejection rate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import TooFewSamples

KKT_TOL = 1e-4
MAX_ITER = 20000
NU_GRID = (0.01, 0.05, 0.1, 0.2)
GAMMA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
OUTLIER_REJECTION_TARGET = 0.95
CALIBRATED_NU = 0.1      # train_ocsvm_calibrated hyperparameters
CALIBRATED_GAMMA = 0.1


def _rbf(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    xx = (x ** 2).sum(axis=1)[:, None]
    yy = (y ** 2).sum(axis=1)[None, :]
    return np.exp(-gamma * (xx + yy - 2.0 * x @ y.T))


@dataclass
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, std_floor: float = 0.0) -> "Scaler":
        """Column z-scaler; std_floor (relative to |mean|) regularizes the
        scale of near-constant columns so small training sets do not become
        overconfident along them."""
        std = x.std(axis=0)
        if std_floor > 0:
            std = np.maximum(std, std_floor * np.abs(x.mean(axis=0)))
        std[std == 0] = 1.0
        return cls(mean=x.mean(axis=0), std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(x) - self.mean) / self.std


@dataclass
class OcSvmModel:
    support_vectors: np.ndarray   # already z-scored rows
    dual_coef: np.ndarray
    rho: float
    nu: float
    gamma: float
    scaler: Scaler

    def score(self, x: np.ndarray) -> float:
        """Signed decision value; >= 0 accepts."""
        z = self.scaler.transform(np.asarray(x, dtype=float))
        k = _rbf(self.support_vectors, z, self.gamma)
        return float(self.dual_coef @ k[:, 0] - self.rho)

    def scores(self, x: np.ndarray) -> np.ndarray:
        z = self.scaler.transform(np.asarray(x, dtype=float))
        k = _rbf(self.support_vectors, z, self.gamma)
        return self.dual_coef @ k - self.rho


def _solve_ocsvm_dual(k: np.ndarray, nu: float) -> np.ndarray:
    """Pairwise coordinate descent on the OC-SVM dual (sum alpha = 1), to a
    KKT gap of KKT_TOL or MAX_ITER steps."""
    n = len(k)
    c = 1.0 / (nu * n)
    alpha = np.full(n, 1.0 / n)
    if alpha[0] > c:  # infeasible start cannot happen for nu <= 1, guard anyway
        alpha = np.full(n, min(c, 1.0 / n))
    for _ in range(MAX_ITER):
        grad = k @ alpha
        up_mask = alpha < c - 1e-15
        dn_mask = alpha > 1e-15
        i = int(np.argmax(np.where(dn_mask, grad, -np.inf)))   # donate from
        j = int(np.argmin(np.where(up_mask, grad, np.inf)))    # receive to
        gap = grad[i] - grad[j]
        if gap < KKT_TOL:
            break
        denom = k[i, i] + k[j, j] - 2.0 * k[i, j]
        step = gap / denom if denom > 1e-12 else alpha[i]
        step = min(step, alpha[i], c - alpha[j])
        alpha[i] -= step
        alpha[j] += step
    return alpha


def fit_ocsvm_fixed(x: np.ndarray, nu: float, gamma: float,
                    scaler: Scaler | None = None) -> OcSvmModel:
    """Train one OC-SVM at fixed hyperparameters on raw feature rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if scaler is None:
        scaler = Scaler.fit(x)
    z = scaler.transform(x)
    # grid gamma is dimensionless; the kernel width scales with the feature
    # count so squared distances stay O(1) regardless of dimensionality
    gamma = gamma / z.shape[1]
    k = _rbf(z, z, gamma)
    alpha = _solve_ocsvm_dual(k, nu)
    sv = alpha > 1e-10
    n = len(z)
    c = 1.0 / (nu * n)
    decision = k @ alpha
    margin = (alpha > 1e-8) & (alpha < c - 1e-8)
    # rho at the low edge of the margin band so free SVs score >= 0 despite
    # the KKT tolerance; bounded SVs stay at or below zero
    if margin.any():
        rho = float(decision[margin].min())
    elif (alpha >= c - 1e-8).any():
        rho = float(decision[alpha >= c - 1e-8].max())
    else:
        rho = float(decision[sv].mean())
    rho -= KKT_TOL   # margin points must not flip sign on solver noise
    return OcSvmModel(support_vectors=z[sv], dual_coef=alpha[sv], rho=rho,
                      nu=nu, gamma=gamma, scaler=scaler)


def train_ocsvm(train: np.ndarray, seed: int = 0) -> OcSvmModel:
    """Grid search over NU_GRID x GAMMA_GRID: maximize held-out genuine
    acceptance subject to a fixed rejection rate on synthetic uniform
    outliers over the feature hypercube."""
    x = np.atleast_2d(np.asarray(train, dtype=float))
    if len(x) < 10:
        raise TooFewSamples(f"need >= 10 training vectors, got {len(x)}")
    rng = np.random.default_rng(seed)
    scaler = Scaler.fit(x)
    z_all = scaler.transform(x)

    n_hold = max(2, len(x) // 5)
    order = rng.permutation(len(x))
    hold, fit_idx = order[:n_hold], order[n_hold:]

    lo = z_all.min(axis=0) - 3.0
    hi = z_all.max(axis=0) + 3.0
    outliers = rng.uniform(lo, hi, size=(200, x.shape[1]))

    best = None
    for nu in NU_GRID:
        for gamma in GAMMA_GRID:
            model = fit_ocsvm_fixed(x[fit_idx], nu, gamma, scaler=scaler)
            accept = float(np.mean(model.scores(x[hold]) >= 0))
            reject = float(np.mean(model.scores(scaler.mean
                                                + outliers * scaler.std) < 0))
            feasible = reject >= OUTLIER_REJECTION_TARGET
            key = (feasible, accept if feasible else accept + reject)
            if best is None or key > best[0]:
                best = (key, nu, gamma)
    _, nu, gamma = best
    return fit_ocsvm_fixed(x, nu, gamma, scaler=scaler)


def train_ocsvm_calibrated(positives: np.ndarray, negatives: np.ndarray,
                           std_floor: float = 0.0,
                           balance: float = 0.5) -> OcSvmModel:
    """OC-SVM fit on positives (nu CALIBRATED_NU, gamma CALIBRATED_GAMMA)
    with the threshold calibrated against known negatives: rho sits between
    the low quantile of positive decision values and the high quantile of
    negative ones (balance 0 = hug the negatives, 1 = hug the positives).
    Used when a surrogate negative class is cheap to synthesize and the
    boundary should not key on incidental positive-cloud tightness."""
    pos = np.atleast_2d(np.asarray(positives, dtype=float))
    neg = np.atleast_2d(np.asarray(negatives, dtype=float))
    if len(pos) < 10:
        raise TooFewSamples(f"need >= 10 positive vectors, got {len(pos)}")
    if len(neg) < 2:
        raise TooFewSamples(f"need >= 2 negative vectors, got {len(neg)}")
    if not 0.0 < balance < 1.0:
        raise ValueError("balance must lie in (0, 1)")
    scaler = Scaler.fit(pos, std_floor=std_floor)
    model = fit_ocsvm_fixed(pos, CALIBRATED_NU, CALIBRATED_GAMMA,
                            scaler=scaler)
    d_pos = model.scores(pos) + model.rho
    d_neg = model.scores(neg) + model.rho
    model.rho = float(balance * np.quantile(d_pos, 0.05)
                      + (1.0 - balance) * np.quantile(d_neg, 0.95))
    return model


# --- serialization -----------------------------------------------------------

_MODEL_TAG = b"SGMODEL1"
_KIND_OCSVM = 1


def serialize_model(model: OcSvmModel) -> bytes:
    """Versioned binary blob of an OC-SVM model."""
    if not isinstance(model, OcSvmModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    arrays = [model.support_vectors, model.dual_coef,
              model.scaler.mean, model.scaler.std]
    out = [_MODEL_TAG,
           struct.pack("<B3d", _KIND_OCSVM, model.rho, model.nu, model.gamma),
           struct.pack("<B", len(arrays))]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        out.append(struct.pack("<BII", a.ndim,
                               a.shape[0], a.shape[1] if a.ndim == 2 else 0))
        out.append(a.tobytes())
    return b"".join(out)


def deserialize_model(blob: bytes) -> OcSvmModel:
    """Inverse of serialize_model. Anything but exactly one model raises
    ValueError: it holds support vectors (m, d), dual coefficients (m,) and
    scaler mean and std (d,), every value finite and every std positive."""
    if blob[:8] != _MODEL_TAG:
        raise ValueError("bad model tag")
    off = 8
    try:
        kind, rho, nu, gamma = struct.unpack_from("<B3d", blob, off)
        off += struct.calcsize("<B3d")
        (n_arr,) = struct.unpack_from("<B", blob, off)
        off += 1
        arrays = []
        for _ in range(n_arr):
            ndim, d0, d1 = struct.unpack_from("<BII", blob, off)
            off += struct.calcsize("<BII")
            if ndim not in (1, 2):
                raise ValueError(f"array of {ndim} dimensions")
            count = d0 * (d1 if ndim == 2 else 1)
            a = np.frombuffer(blob, dtype="<f8", offset=off,
                              count=count).copy()
            off += count * 8
            arrays.append(a.reshape(d0, d1) if ndim == 2 else a)
    except (struct.error, OverflowError) as exc:
        raise ValueError(f"truncated model blob: {exc}") from exc
    if kind != _KIND_OCSVM:
        raise ValueError(f"unknown model kind {kind}")
    if off != len(blob) or len(arrays) != 4:
        raise ValueError("model blob must hold exactly four arrays")
    sv, coef, mean, std = arrays
    m, d = sv.shape if sv.ndim == 2 else (0, 0)
    if not (m and d and coef.shape == (m,) and mean.shape == std.shape == (d,)):
        raise ValueError("inconsistent model array shapes")
    if not (np.isfinite([rho, nu, gamma]).all()
            and all(np.isfinite(a).all() for a in arrays) and (std > 0).all()):
        raise ValueError("model parameters must be finite, scales positive")
    return OcSvmModel(sv, coef, rho=rho, nu=nu, gamma=gamma,
                      scaler=Scaler(mean, std))
