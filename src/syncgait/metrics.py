"""Biometric evaluation of a score stream: FAR/FRR sweep, EER, BAC, ROC/AUC.

Rates are ratios of integer counts, so EER (with its crossing interpolation)
and the trapezoidal AUC are computed in exact rational arithmetic and only
converted to float at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyScores


@dataclass
class EvalReport:
    thresholds: np.ndarray
    far_curve: np.ndarray
    frr_curve: np.ndarray
    eer: float
    bac_at_zero: float
    auc: float

    def to_dict(self) -> dict:
        k = int(np.searchsorted(self.thresholds, 0.0))
        k = min(k, len(self.thresholds) - 1)
        return {"eer": self.eer, "auc": self.auc, "bac": self.bac_at_zero,
                "far@thr": float(self.far_curve[k]),
                "frr@thr": float(self.frr_curve[k])}


def evaluate(scores_genuine, scores_impostor) -> EvalReport:
    """Threshold sweep over all distinct scores (accept iff score >= t).

    EER interpolates linearly between the adjacent thresholds where FAR - FRR
    changes sign; AUC is trapezoidal integration of the ROC; BAC is taken at
    the default accept threshold 0.
    """
    g = np.asarray(scores_genuine, dtype=float)
    imp = np.asarray(scores_impostor, dtype=float)
    if g.size == 0 or imp.size == 0:
        raise EmptyScores("both score lists must be non-empty")
    ng, ni = g.size, imp.size

    uniq = np.unique(np.concatenate([g, imp]))
    thresholds = np.concatenate([[uniq[0] - 1.0], uniq, [uniq[-1] + 1.0]])

    fa_counts = [int((imp >= t).sum()) for t in thresholds]
    fr_counts = [int((g < t).sum()) for t in thresholds]
    far = [Fraction(c, ni) for c in fa_counts]
    frr = [Fraction(c, ng) for c in fr_counts]

    eer = float(_eer_exact(far, frr))
    auc = float(_auc_exact(fa_counts, fr_counts, ng, ni))
    bac = float((Fraction(int((g >= 0).sum()), ng)
                 + Fraction(int((imp < 0).sum()), ni)) / 2)

    return EvalReport(
        thresholds=thresholds,
        far_curve=np.array([float(x) for x in far]),
        frr_curve=np.array([float(x) for x in frr]),
        eer=eer, bac_at_zero=bac, auc=auc,
    )


def _eer_exact(far: list[Fraction], frr: list[Fraction]) -> Fraction:
    """FAR = FRR point; thresholds ascend so FAR - FRR is non-increasing.
    The sweep opens at FAR 1, FRR 0 and closes at FAR 0, FRR 1, so its
    first non-positive FAR - FRR exists and has a predecessor."""
    diff = [fa - fr for fa, fr in zip(far, frr)]
    k = next(k for k, d in enumerate(diff) if d <= 0)
    if diff[k] == 0:
        return (far[k] + frr[k]) / 2
    w = diff[k - 1] / (diff[k - 1] - diff[k])
    return (1 - w) * far[k - 1] + w * far[k]


def _auc_exact(fa_counts: list[int], fr_counts: list[int],
               ng: int, ni: int) -> Fraction:
    """Trapezoid area under TAR(FAR), in exact counts."""
    pts = sorted(zip(fa_counts, (ng - c for c in fr_counts)))
    twice_area = 0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        twice_area += (x1 - x0) * (y0 + y1)
    return Fraction(twice_area, 2 * ng * ni)


def roc_points_csv(report: EvalReport) -> str:
    lines = ["threshold,far,tar"]
    for t, f, r in zip(report.thresholds, report.far_curve,
                       1.0 - report.frr_curve):
        lines.append(f"{t:.9g},{f:.9g},{r:.9g}")
    return "\n".join(lines) + "\n"
