import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.evaluation import (
    ConfusionCounts,
    RocCurve,
    auc_trapezoid,
    best_operating_index,
    best_threshold,
    confusion,
    metrics_at_threshold,
    metrics_from_confusion,
    roc_from_scores,
    roc_from_sweep,
)

# ---------------------------------------------------------------------------
# confusion counts and point metrics

def test_confusion_hand_case():
    c = confusion([1, 1, 0, 0], [1, 0, 1, 0])
    assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
    m = metrics_from_confusion(c)
    assert (m.accuracy, m.precision, m.recall, m.fpr) == (0.5, 0.5, 0.5, 0.5)
    assert m.undefined == ()


def test_perfect_predictions():
    m = metrics_from_confusion(confusion([0, 1, 1], [0, 1, 1]))
    assert (m.accuracy, m.precision, m.recall, m.fpr) == (1.0, 1.0, 1.0, 0.0)


def test_undefined_precision_flagged():
    # never alarming: no positive predictions -> precision is 0/0
    m = metrics_from_confusion(confusion([1, 1, 0], [0, 0, 0]))
    assert np.isnan(m.precision)
    assert "precision" in m.undefined
    assert m.recall == 0.0
    assert m.fpr == 0.0


def test_undefined_recall_and_fpr_flagged():
    m = metrics_from_confusion(confusion([0, 0], [0, 1]))
    assert np.isnan(m.recall)
    assert "recall" in m.undefined
    m = metrics_from_confusion(confusion([1, 1], [0, 1]))
    assert np.isnan(m.fpr)
    assert "fpr" in m.undefined


def test_confusion_validation():
    with pytest.raises(ValueError, match="equal length"):
        confusion([1, 0], [1])


# ---------------------------------------------------------------------------
# ROC from scores

def test_roc_separable_is_perfect():
    roc = roc_from_scores([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert roc.auc == 1.0
    assert roc.fpr[0] == 0.0 and roc.tpr[0] == 0.0
    assert roc.fpr[-1] == 1.0 and roc.tpr[-1] == 1.0
    assert roc.thresholds[0] == np.inf
    # the operating point (0, 1) is reachable at threshold 0.8
    i = best_operating_index(roc)
    assert (roc.fpr[i], roc.tpr[i]) == (0.0, 1.0)
    assert best_threshold(roc) == 0.8


def test_roc_constant_scores_is_chance():
    roc = roc_from_scores([0.5] * 6, [1, 0, 1, 0, 1, 0])
    assert roc.auc == 0.5
    assert len(roc.thresholds) == 2  # inf sentinel + the single score
    assert roc.fpr.tolist() == [0.0, 1.0]
    assert roc.tpr.tolist() == [0.0, 1.0]


def test_roc_random_scores_near_half():
    rng = np.random.default_rng(31)
    n = 10_000
    scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    roc = roc_from_scores(scores, labels)
    assert 0.47 <= roc.auc <= 0.53


def test_roc_reversed_scores_is_zero():
    roc = roc_from_scores([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert roc.auc == 0.0


def test_roc_ties_grouped():
    roc = roc_from_scores([0.5, 0.5, 0.3], [1, 0, 1])
    assert roc.thresholds.tolist() == [np.inf, 0.5, 0.3]
    assert roc.fpr.tolist() == [0.0, 1.0, 1.0]
    assert roc.tpr.tolist() == [0.0, 0.5, 1.0]


def test_roc_needs_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        roc_from_scores([0.1, 0.9], [1, 1])


def test_roc_rejects_non_finite_scores_and_length_mismatch():
    with pytest.raises(ValueError, match="finite"):
        roc_from_scores([0.1, np.nan], [0, 1])
    with pytest.raises(ValueError, match="equal length"):
        roc_from_scores([0.1, 0.2, 0.3], [0, 1])


def _brute_force_roc(scores, labels):
    """One confusion matrix per threshold: the definition the fast path keeps."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    thresholds = np.concatenate(([np.inf], np.unique(scores)[::-1]))
    fpr, tpr = [], []
    for th in thresholds:
        c = confusion(labels, scores >= th)
        fpr.append(c.fp / (c.fp + c.tn))
        tpr.append(c.tp / (c.tp + c.fn))
    return thresholds, np.array(fpr), np.array(tpr), auc_trapezoid(fpr, tpr)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_roc_matches_brute_force_bit_for_bit(tied, seed):
    rng = np.random.default_rng(seed)
    n = 300
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    # tied: a few distinct values, each shared by many rows of both classes
    scores = rng.integers(0, 7, size=n) / 7.0 if tied else rng.random(n)
    thresholds, fpr, tpr, auc = _brute_force_roc(scores, labels)
    roc = roc_from_scores(scores, labels)
    assert len(roc.thresholds) == (8 if tied else n + 1)
    assert roc.thresholds.tobytes() == thresholds.tobytes()
    assert roc.fpr.tobytes() == fpr.tobytes()
    assert roc.tpr.tobytes() == tpr.tobytes()
    assert roc.auc == auc


def test_decision_rule_is_score_at_least_threshold():
    m = metrics_at_threshold([0.3, 0.5, 0.7], [0, 1, 1], 0.5)
    assert m.recall == 1.0 and m.fpr == 0.0
    m = metrics_at_threshold([0.3, 0.5, 0.7], [0, 1, 1], np.inf)
    assert m.recall == 0.0  # +inf: never alarm
    m = metrics_at_threshold([0.3, 0.5, 0.7], [0, 1, 1], -np.inf)
    assert m.recall == 1.0 and m.fpr == 1.0  # -inf: always alarm


# ---------------------------------------------------------------------------
# ROC from sweeps

def test_roc_from_sweep_adds_missing_corners():
    labels = [1, 1, 0, 0]
    rows = np.array([[1, 0, 0, 0], [1, 1, 1, 0]], dtype=np.int8)
    roc = roc_from_sweep([2.0, 1.0], rows, labels)
    assert roc.thresholds[0] == np.inf and roc.thresholds[-1] == -np.inf
    assert roc.fpr[0] == 0.0 and roc.tpr[0] == 0.0
    assert roc.fpr[-1] == 1.0 and roc.tpr[-1] == 1.0
    assert np.all(np.diff(roc.fpr) >= 0)


def test_roc_from_sweep_keeps_existing_corners():
    labels = [1, 0]
    rows = np.array([[0, 0], [1, 1]], dtype=np.int8)
    roc = roc_from_sweep([5.0, 1.0], rows, labels)
    # the sweep already spans (0,0) and (1,1): no sentinel duplication
    assert len(roc.thresholds) == 2
    assert roc.auc == 0.5


def test_roc_from_sweep_validation():
    with pytest.raises(ValueError, match="n_thresholds"):
        roc_from_sweep([1.0], np.zeros((2, 3), dtype=np.int8), [1, 0, 1])



def _roc_from_sweep_loop(thresholds, rows, labels):
    labels = np.asarray(labels).astype(bool)
    pts = []
    for th, row in zip(thresholds, rows):
        c = confusion(labels, row)
        pts.append((c.fp / (c.fp + c.tn), c.tp / (c.tp + c.fn), th))
    if not any(f == 0.0 and t == 0.0 for f, t, _ in pts):
        pts.append((0.0, 0.0, np.inf))
    if not any(f == 1.0 and t == 1.0 for f, t, _ in pts):
        pts.append((1.0, 1.0, -np.inf))
    pts.sort(key=lambda p: (p[0], p[1]))
    return [np.array([p[i] for p in pts]) for i in (2, 0, 1)]


@pytest.mark.parametrize("corners", ["none", "both", "never-only", "always-only"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roc_from_sweep_matches_the_per_threshold_loop(corners, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=40)
    labels[:2] = (0, 1)
    # few distinct rows, repeated: many points tie on (fpr, tpr)
    distinct = (rng.random((6, 40)) < rng.random((6, 1))).astype(np.int8)
    distinct[:, 0] = 1  # no row is all zeros ...
    distinct[:, 1] = 0  # ... or all ones, unless a corner case adds one
    rows = distinct[rng.integers(0, 6, size=25)]
    if corners in ("both", "never-only"):
        rows[3] = 0
    if corners in ("both", "always-only"):
        rows[7] = 1
    thresholds = np.sort(rng.normal(size=25))[::-1]
    roc = roc_from_sweep(thresholds, rows, labels)
    ths, fpr, tpr = _roc_from_sweep_loop(thresholds, rows, labels)
    assert np.array_equal(roc.thresholds, ths)
    assert np.array_equal(roc.fpr, fpr) and np.array_equal(roc.tpr, tpr)
    assert roc.auc == auc_trapezoid(fpr, tpr)

# ---------------------------------------------------------------------------
# operating point selection

def test_best_point_minimizes_distance_to_ideal():
    roc = RocCurve(
        thresholds=np.array([np.inf, 3.0, 2.0, -np.inf]),
        fpr=np.array([0.0, 0.1, 0.6, 1.0]),
        tpr=np.array([0.0, 0.8, 0.9, 1.0]),
        auc=0.9,
    )
    assert best_operating_index(roc) == 1  # sqrt(0.01+0.04) beats the rest
    assert best_threshold(roc) == 3.0


def test_best_point_tie_breaks():
    # exact distance tie (0.5 and 0.25 are binary-exact): prefer higher tpr
    roc = RocCurve(
        thresholds=np.array([np.inf, 4.0, 3.0]),
        fpr=np.array([0.0, 0.0, 0.5]),
        tpr=np.array([0.0, 0.5, 1.0]),
        auc=0.75,
    )
    assert best_operating_index(roc) == 2  # both at distance 0.5
    # equal (fpr, tpr): prefer the lower threshold
    roc = RocCurve(
        thresholds=np.array([5.0, 3.0]),
        fpr=np.array([0.3, 0.3]),
        tpr=np.array([0.8, 0.8]),
        auc=0.75,
    )
    assert best_operating_index(roc) == 1


def test_auc_trapezoid_triangle():
    assert auc_trapezoid([0.0, 0.5, 1.0], [0.0, 1.0, 1.0]) == 0.75


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=50)
@given(st.integers(2, 200), st.integers(0, 2**31))
def test_roc_endpoints_and_monotonicity(n, seed):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=int)
    labels[: n // 2] = 1
    rng.shuffle(labels)
    if labels.min() == labels.max():  # tiny n can lose a class
        labels[0], labels[-1] = 0, 1
    scores = rng.random(n)
    roc = roc_from_scores(scores, labels)
    assert (roc.fpr[0], roc.tpr[0]) == (0.0, 0.0)
    assert (roc.fpr[-1], roc.tpr[-1]) == (1.0, 1.0)
    assert np.all(np.diff(roc.fpr) >= 0)
    assert np.all(np.diff(roc.tpr) >= 0)
    assert np.all(np.diff(roc.thresholds) < 0)  # strictly decreasing
    assert 0.0 <= roc.auc <= 1.0


@settings(max_examples=30)
@given(st.integers(4, 100), st.integers(0, 2**31))
def test_auc_invariant_under_monotone_transform(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.normal(size=n)
    a = roc_from_scores(scores, labels)
    b = roc_from_scores(np.exp(scores / 3.0), labels)  # strictly increasing map
    assert np.array_equal(a.fpr, b.fpr)
    assert np.array_equal(a.tpr, b.tpr)
    assert a.auc == b.auc
