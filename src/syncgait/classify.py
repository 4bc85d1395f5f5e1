"""One-class classifier: OC-SVM (dual solver) and its model file format.

The OC-SVM dual  min 1/2 a'Ka  s.t. 0 <= a_i <= 1/(nu n), sum a = 1  is solved
by SMO-style pairwise coordinate updates to a KKT tolerance. The gait model
fits at the fixed GAIT_NU and GAIT_GAMMA; the consistency model fits at
CALIBRATED_NU and CALIBRATED_GAMMA and then calibrates its threshold against
known negatives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import TooFewSamples

KKT_TOL = 1e-4
MAX_ITER = 20000
GAIT_NU = 0.01           # train_ocsvm hyperparameters
GAIT_GAMMA = 0.1
CALIBRATED_NU = 0.1      # train_ocsvm_calibrated hyperparameters
CALIBRATED_GAMMA = 0.1
CALIBRATED_STD_FLOOR = 0.2   # Scaler.fit std_floor of the positives
CALIBRATED_BALANCE = 0.3     # rho: 0 hugs the negatives, 1 the positives


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


def _solve_ocsvm_dual(k: np.ndarray, c: float) -> np.ndarray:
    """Pairwise coordinate descent on the OC-SVM dual (sum alpha = 1) with
    box bound c, to a KKT gap of KKT_TOL or MAX_ITER steps; returns alpha.

    The scalar step runs on Python floats, the same IEEE operations the
    numpy scalars gave, so alpha is bit for bit the same."""
    n = len(k)
    alpha = np.full(n, 1.0 / n)   # feasible, since nu <= 1 gives c >= 1/n
    diag = k.diagonal().tolist()
    for _ in range(MAX_ITER):
        grad = k @ alpha
        up_mask = alpha < c - 1e-15
        dn_mask = alpha > 1e-15
        i = int(np.argmax(np.where(dn_mask, grad, -np.inf)))   # donate from
        j = int(np.argmin(np.where(up_mask, grad, np.inf)))    # receive to
        gap = float(grad[i]) - float(grad[j])
        if gap < KKT_TOL:
            break
        a_i, a_j = float(alpha[i]), float(alpha[j])
        denom = diag[i] + diag[j] - 2.0 * float(k[i, j])
        step = gap / denom if denom > 1e-12 else a_i
        step = min(step, a_i, c - a_j)
        alpha[i] = a_i - step
        alpha[j] = a_j + step
    return alpha


def fit_ocsvm_fixed(x: np.ndarray, nu: float, gamma: float,
                    scaler: Scaler | None = None) -> OcSvmModel:
    """Train one OC-SVM at fixed hyperparameters on raw feature rows;
    nu, the bound on the outlier fraction, must lie in (0, 1]."""
    if not 0 < nu <= 1:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if scaler is None:
        scaler = Scaler.fit(x)
    z = scaler.transform(x)
    # the given gamma is dimensionless; the kernel width scales with the
    # feature count so squared distances stay O(1) regardless of dimensionality
    gamma = gamma / z.shape[1]
    k = _rbf(z, z, gamma)
    c = 1.0 / (nu * len(z))
    alpha = _solve_ocsvm_dual(k, c)
    sv = alpha > 1e-10
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


def train_ocsvm(train: np.ndarray) -> OcSvmModel:
    """The gait model: an OC-SVM on at least 10 raw feature rows, fit at
    GAIT_NU and GAIT_GAMMA."""
    x = np.atleast_2d(np.asarray(train, dtype=float))
    if len(x) < 10:
        raise TooFewSamples(f"need >= 10 training vectors, got {len(x)}")
    return fit_ocsvm_fixed(x, GAIT_NU, GAIT_GAMMA)


def train_ocsvm_calibrated(positives: np.ndarray,
                           negatives: np.ndarray) -> OcSvmModel:
    """OC-SVM fit on positives (nu CALIBRATED_NU, gamma CALIBRATED_GAMMA,
    scaled with CALIBRATED_STD_FLOOR) with the threshold calibrated against
    known negatives: rho sits CALIBRATED_BALANCE of the way from the high
    quantile of negative decision values to the low quantile of positive
    ones. Used when a surrogate negative class is cheap to synthesize and the
    boundary should not key on incidental positive-cloud tightness."""
    pos = np.atleast_2d(np.asarray(positives, dtype=float))
    neg = np.atleast_2d(np.asarray(negatives, dtype=float))
    if len(pos) < 10:
        raise TooFewSamples(f"need >= 10 positive vectors, got {len(pos)}")
    if len(neg) < 2:
        raise TooFewSamples(f"need >= 2 negative vectors, got {len(neg)}")
    scaler = Scaler.fit(pos, std_floor=CALIBRATED_STD_FLOOR)
    model = fit_ocsvm_fixed(pos, CALIBRATED_NU, CALIBRATED_GAMMA,
                            scaler=scaler)
    d_pos = model.scores(pos) + model.rho
    d_neg = model.scores(neg) + model.rho
    model.rho = float(CALIBRATED_BALANCE * np.quantile(d_pos, 0.05)
                      + (1.0 - CALIBRATED_BALANCE) * np.quantile(d_neg, 0.95))
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
