"""EER/AUC/BAC evaluation against an exhaustive-threshold oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import EmptyScores
from syncgait.metrics import EvalReport, evaluate, roc_points_csv


def oracle_rates(genuine, impostor):
    """Independent exhaustive sweep over every distinct score as threshold."""
    g = np.asarray(genuine, float)
    i = np.asarray(impostor, float)
    uniq = np.unique(np.concatenate([g, i]))
    thresholds = np.concatenate([[uniq[0] - 1], uniq, [uniq[-1] + 1]])
    far = np.array([(i >= t).mean() for t in thresholds])
    frr = np.array([(g < t).mean() for t in thresholds])
    return thresholds, far, frr


def oracle_eer(genuine, impostor):
    thr, far, frr = oracle_rates(genuine, impostor)
    diff = far - frr
    for k in range(len(thr)):
        if diff[k] <= 0:
            if diff[k] == 0 or k == 0:
                return (far[k] + frr[k]) / 2
            w = diff[k - 1] / (diff[k - 1] - diff[k])
            return (1 - w) * far[k - 1] + w * far[k]
    return (far[-1] + frr[-1]) / 2


def oracle_auc(genuine, impostor):
    thr, far, frr = oracle_rates(genuine, impostor)
    pts = sorted(zip(far, 1 - frr))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2
    return area


def test_eer_frozen_small_example():
    # [DERIVED] genuine [0.9, 0.8, 0.3], impostor [0.7, 0.2, 0.1]: the
    # FAR/FRR curves cross exactly at 1/3
    rep = evaluate([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
    assert rep.eer == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_perfect_separation():
    rep = evaluate([1.0, 2.0, 3.0], [-3.0, -2.0, -1.0])
    assert rep.eer == 0.0
    assert rep.auc == 1.0
    assert rep.bac_at_zero == 1.0


def test_total_overlap():
    rep = evaluate([0.5, 0.5], [0.5, 0.5])
    assert rep.auc == pytest.approx(0.5)


def test_matches_oracle_on_random_sets():
    rng = np.random.default_rng(123)
    for _ in range(50):
        g = rng.normal(0.5, 0.5, rng.integers(5, 60))
        i = rng.normal(-0.5, 0.5, rng.integers(5, 60))
        rep = evaluate(g, i)
        assert rep.eer == pytest.approx(oracle_eer(g, i), abs=1e-12)
        assert rep.auc == pytest.approx(oracle_auc(g, i), abs=1e-12)
        thr, far, frr = oracle_rates(g, i)
        assert np.allclose(rep.far_curve, far)
        assert np.allclose(rep.frr_curve, frr)


def test_bac_at_zero_threshold():
    g = [0.2, 0.1, -0.3]       # 2/3 accepted
    i = [-0.5, -0.1, 0.4, -0.2]  # 3/4 rejected
    rep = evaluate(g, i)
    assert rep.bac_at_zero == pytest.approx((2 / 3 + 3 / 4) / 2)


def test_empty_scores_raise():
    with pytest.raises(EmptyScores):
        evaluate([], [0.1])
    with pytest.raises(EmptyScores):
        evaluate([0.1], [])


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=40),
       st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_rates_are_valid_probabilities(g, i):
    rep = evaluate(g, i)
    assert np.all((rep.far_curve >= 0) & (rep.far_curve <= 1))
    assert np.all((rep.frr_curve >= 0) & (rep.frr_curve <= 1))
    assert 0.0 <= rep.eer <= 1.0
    assert 0.0 <= rep.auc <= 1.0
    # FAR is non-increasing, FRR non-decreasing in the threshold
    assert np.all(np.diff(rep.far_curve) <= 1e-12)
    assert np.all(np.diff(rep.frr_curve) >= -1e-12)


def test_roc_csv_format():
    rep = evaluate([0.9, 0.8], [0.1, 0.2])
    csv = roc_points_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "threshold,far,tar"
    assert len(lines) == len(rep.thresholds) + 1
    cells = lines[1].split(",")
    assert len(cells) == 3
