from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.evaluation import (
    RocCurve,
    best_operating_index,
    metrics_at,
    roc_from_scores,
    roc_from_sweep,
)

# ---------------------------------------------------------------------------
# metrics at one point of a curve

def test_confusion_hand_case():
    roc = roc_from_scores([0.9, 0.2, 0.8, 0.1], [1, 1, 0, 0])
    assert roc.thresholds[2] == 0.8
    assert (roc.tp[2], roc.fp[2], roc.positives, roc.negatives) == (1, 1, 2, 2)
    m = metrics_at(roc, 2)
    assert (m.accuracy, m.precision, m.recall, m.fpr) == (0.5, 0.5, 0.5, 0.5)
    assert m.undefined == ()


def test_perfect_predictions():
    roc = roc_from_scores([0.1, 0.9, 0.8], [0, 1, 1])
    m = metrics_at(roc, 2)  # threshold 0.8
    assert (m.accuracy, m.precision, m.recall, m.fpr) == (1.0, 1.0, 1.0, 0.0)


def test_undefined_precision_flagged():
    # the never-alarm point: no positive predictions -> precision is 0/0
    m = metrics_at(roc_from_scores([0.2, 0.7, 0.4], [1, 1, 0]), 0)
    assert np.isnan(m.precision)
    assert "precision" in m.undefined
    assert m.recall == 0.0
    assert m.fpr == 0.0


def test_undefined_recall_and_fpr_flagged():
    # the curve builders refuse one-class labels; hand-built curves show the flags
    th = np.array([np.inf, 0.5])
    with np.errstate(invalid="ignore"):  # the curves' own 0/0 rates
        no_pos = RocCurve(th, tp=np.array([0, 0]), fp=np.array([0, 1]), positives=0, negatives=2)
        no_neg = RocCurve(th, tp=np.array([0, 1]), fp=np.array([0, 0]), positives=2, negatives=0)
    m = metrics_at(no_pos, 1)
    assert np.isnan(m.recall)
    assert "recall" in m.undefined
    m = metrics_at(no_neg, 1)
    assert np.isnan(m.fpr)
    assert "fpr" in m.undefined


def test_confusion_validation():
    with pytest.raises(ValueError, match="n_samples"):
        roc_from_sweep([1.0], [[1, 0, 1]], [1, 0])


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
    assert roc.thresholds[i] == 0.8


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
    """One count of alarms per threshold: the definition the fast path keeps."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    thresholds = np.concatenate(([np.inf], np.unique(scores)[::-1]))
    fpr, tpr = [], []
    for th in thresholds:
        alarms = scores >= th
        fpr.append(np.count_nonzero(alarms & ~labels) / np.count_nonzero(~labels))
        tpr.append(np.count_nonzero(alarms & labels) / np.count_nonzero(labels))
    return thresholds, np.array(fpr), np.array(tpr), float(np.trapezoid(tpr, fpr))


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
    roc = roc_from_scores([0.3, 0.5, 0.7], [0, 1, 1])
    assert roc.thresholds.tolist() == [np.inf, 0.7, 0.5, 0.3]
    m = metrics_at(roc, 2)
    assert m.recall == 1.0 and m.fpr == 0.0  # 0.5 itself alarms
    m = metrics_at(roc, 0)
    assert m.recall == 0.0  # +inf: never alarm
    m = metrics_at(roc, 3)
    assert m.recall == 1.0 and m.fpr == 1.0  # the lowest score: always alarm


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
        row = np.asarray(row).astype(bool)
        pts.append((np.count_nonzero(row & ~labels) / np.count_nonzero(~labels),
                    np.count_nonzero(row & labels) / np.count_nonzero(labels), th))
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
    assert roc.auc == float(np.trapezoid(tpr, fpr))

# ---------------------------------------------------------------------------
# operating point selection

def test_best_point_minimizes_distance_to_ideal():
    roc = RocCurve(
        thresholds=np.array([np.inf, 3.0, 2.0, -np.inf]),
        tp=np.array([0, 8, 9, 10]),
        fp=np.array([0, 1, 6, 10]),
        positives=10,
        negatives=10,
    )
    assert roc.fpr.tolist() == [0.0, 0.1, 0.6, 1.0]
    assert roc.tpr.tolist() == [0.0, 0.8, 0.9, 1.0]
    i = best_operating_index(roc)
    assert i == 1  # sqrt(0.01+0.04) beats the rest
    assert roc.thresholds[i] == 3.0


def test_best_point_tie_breaks():
    # exact distance tie (0.5 and 0.25 are binary-exact): prefer higher tpr
    roc = RocCurve(
        thresholds=np.array([np.inf, 4.0, 3.0]),
        tp=np.array([0, 1, 2]),
        fp=np.array([0, 0, 1]),
        positives=2,
        negatives=2,
    )
    assert best_operating_index(roc) == 2  # both at distance 0.5
    # equal (fpr, tpr): prefer the lower threshold
    roc = RocCurve(
        thresholds=np.array([5.0, 3.0]),
        tp=np.array([8, 8]),
        fp=np.array([3, 3]),
        positives=10,
        negatives=10,
    )
    assert best_operating_index(roc) == 1


def _nearest_by_fractions(roc):
    """Reference pick in exact rationals: nearest (0, 1), then higher tp, smaller threshold, earlier."""
    def rank(i):
        tpr, fpr = Fraction(int(roc.tp[i]), roc.positives), Fraction(int(roc.fp[i]), roc.negatives)
        return fpr**2 + (1 - tpr) ** 2, -int(roc.tp[i]), float(roc.thresholds[i]), i
    return min(range(len(roc.tp)), key=rank)


def _nearest_by_tolerance(roc):
    """The float-distance scan with a 1e-15 tie tolerance that best_operating_index replaced."""
    dist = np.sqrt(roc.fpr**2 + (1.0 - roc.tpr) ** 2)
    best = 0
    for i in range(1, len(dist)):
        if dist[i] < dist[best] - 1e-15:
            best = i
        elif abs(dist[i] - dist[best]) <= 1e-15:
            if roc.tpr[i] > roc.tpr[best] or (
                roc.tpr[i] == roc.tpr[best] and roc.thresholds[i] < roc.thresholds[best]
            ):
                best = i
    return best


@st.composite
def _curves(draw):
    """Points on a curve of up to 10**5 positives and negatives, rich in exact distance ties."""
    pos, neg = draw(st.integers(1, 10**5)), draw(st.integers(1, 10**5))
    if draw(st.booleans()):
        neg = pos  # then (tp, fp) and (pos - fp, pos - tp) lie equally far from (0, 1)
    points = draw(st.lists(st.tuples(st.integers(0, pos), st.integers(0, neg)), min_size=1, max_size=12))
    if neg == pos:
        points += [(pos - fp, pos - tp) for tp, fp in draw(st.lists(st.sampled_from(points), max_size=4))]
    points += draw(st.lists(st.sampled_from(points), max_size=4))  # the same point at another threshold
    thresholds = draw(st.lists(st.sampled_from([-np.inf, 0.0, 0.5, 1.0, np.inf]),
                               min_size=len(points), max_size=len(points)))
    tp, fp = map(np.array, zip(*points))
    return RocCurve(thresholds=np.array(thresholds), tp=tp, fp=fp, positives=pos, negatives=neg)


@settings(max_examples=300)
@given(_curves())
def test_operating_point_is_the_exact_nearest(roc):
    assert best_operating_index(roc) == _nearest_by_fractions(roc)


# seeded rather than hypothesis, so a failure under -W error reports the test by name
@pytest.mark.parametrize("pos, neg", [(24, 24), (5, 43), (168, 552), (5, 715)])
def test_operating_point_matches_the_tolerance_scan_at_pipeline_counts(pos, neg):
    # the label counts run_experiment's curves carry; at these sizes distinct distances lie
    # far more than 1e-15 apart, so the exact pick and the old scan agree on every curve
    rng = np.random.default_rng(pos * neg)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        tp, fp = rng.integers(0, pos + 1, size=n), rng.integers(0, neg + 1, size=n)
        dup = rng.integers(0, n, size=n // 4)  # repeated points, to reach the threshold rule
        tp, fp = np.append(tp, tp[dup]), np.append(fp, fp[dup])
        thresholds = rng.choice([-np.inf, 0.0, 0.5, 1.0, np.inf], size=len(tp))
        roc = RocCurve(thresholds=thresholds, tp=tp, fp=fp, positives=pos, negatives=neg)
        assert best_operating_index(roc) == _nearest_by_tolerance(roc)


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


def _metrics_by_counting(decisions, labels):
    """The four metrics of one decision row, from its own confusion counts (None: 0/0)."""
    d = np.asarray(decisions).astype(bool)
    y = np.asarray(labels).astype(bool)
    tp, fp = np.count_nonzero(d & y), np.count_nonzero(d & ~y)
    tn, fn = np.count_nonzero(~d & ~y), np.count_nonzero(~d & y)
    ratios = {"accuracy": (tp + tn, tp + fp + tn + fn), "precision": (tp, tp + fp),
              "recall": (tp, tp + fn), "fpr": (fp, fp + tn)}
    return {name: num / den if den else None for name, (num, den) in ratios.items()}


def _metrics_at(roc, i):
    m = metrics_at(roc, i)
    got = {name: getattr(m, name) for name in ("accuracy", "precision", "recall", "fpr")}
    assert sorted(m.undefined) == sorted(name for name, v in got.items() if np.isnan(v))
    return {name: None if name in m.undefined else v for name, v in got.items()}


# seeded loops rather than hypothesis, so a failure under -W error reports the test by name
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_metrics_at_matches_counting_on_score_curves(tied, seed):
    rng = np.random.default_rng(seed)
    for n in rng.integers(2, 60, size=8):
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        scores = rng.integers(0, 4, size=n) / 4.0 if tied else rng.normal(size=n)
        roc = roc_from_scores(scores, labels)
        for i, th in enumerate(roc.thresholds):
            assert _metrics_at(roc, i) == _metrics_by_counting(scores >= th, labels), (n, i, th)


@pytest.mark.parametrize("corners", ["none", "never", "always", "both"])
@pytest.mark.parametrize("seed", range(5))
def test_metrics_at_matches_counting_on_sweeps(corners, seed):
    rng = np.random.default_rng(seed)
    for n, n_rows in rng.integers((2, 1), (40, 12), size=(8, 2)):
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        rows = (rng.random((n_rows, n)) < rng.random((n_rows, 1))).astype(np.int8)
        if corners in ("never", "both"):
            rows[rng.integers(n_rows)] = 0
        if corners in ("always", "both"):
            rows[rng.integers(n_rows)] = 1
        # distinct thresholds, as on the p_fa and h grids
        thresholds = np.sort(rng.choice(1000, size=n_rows, replace=False))[::-1] / 100.0
        roc = roc_from_sweep(thresholds, rows, labels)
        for i, th in enumerate(roc.thresholds):
            if np.isinf(th):  # a synthesized corner: never (+inf) or always (-inf) alarm
                row = np.full(n, th < 0)
            else:
                row = rows[np.flatnonzero(thresholds == th)[0]]
            assert _metrics_at(roc, i) == _metrics_by_counting(row, labels), (n, i, th)
