"""Detector scoring: ROC curves, operating points and their metrics.

Score-based detectors get the standard ROC construction (thresholds are
the descending unique scores behind a +inf sentinel, decision is
score >= threshold); sweep-based detectors (GLRT over its false-alarm
grid, CUSUM over its alarm-threshold grid) get a curve built from their
per-threshold decision rows, completed with the never/always-alarm corner
points when the grid does not reach them. Each point of a curve keeps its
true- and false-alarm counts; the rates, the AUC (trapezoid) and the
metrics at a point are all read off those counts. The preferred operating
point minimizes the Euclidean distance to the ideal corner (0, 1), compared
exactly on the integer counts; ties go to the higher tpr, then the smaller
threshold, then the earlier point. Metrics whose denominator is empty come
back as NaN together with an explicit flag naming them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MetricSet",
    "RocCurve",
    "best_operating_index",
    "metrics_at",
    "roc_from_scores",
    "roc_from_sweep",
]


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: float
    recall: float
    fpr: float
    undefined: tuple[str, ...] = ()


@dataclass
class RocCurve:
    """Operating points sorted by (fpr, tpr), spanning (0,0) to (1,1).

    Point i alarms on tp[i] of the positives and fp[i] of the negatives;
    thresholds[i] is the detector parameter that produced it. Corner points
    synthesized to complete a sweep curve carry +inf (never alarm) or -inf
    (always alarm).
    """

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    positives: int
    negatives: int
    tpr: np.ndarray = field(init=False)
    fpr: np.ndarray = field(init=False)
    auc: float = field(init=False)

    def __post_init__(self):
        self.tpr = self.tp / self.positives
        self.fpr = self.fp / self.negatives
        self.auc = float(np.trapezoid(self.tpr, self.fpr))


def _check_labels(labels) -> tuple[np.ndarray, int, int]:
    """Labels as bools, with their positive and negative counts."""
    labels = np.asarray(labels).astype(bool)
    positives = int(np.count_nonzero(labels))
    if positives in (0, len(labels)):
        raise ValueError("labels must contain both classes for a ROC curve")
    return labels, positives, len(labels) - positives


def roc_from_scores(scores, labels) -> RocCurve:
    """ROC over the score distribution (ties grouped on one point).

    One sort plus cumulative counts (Fawcett 2006, Alg. 2): lowering the
    threshold to the next distinct score adds the rows tied at that score
    to the true- or false-positive count.
    """
    labels, pos, neg = _check_labels(labels)
    scores = np.asarray(scores, dtype=float)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    uniq, group = np.unique(scores, return_inverse=True)
    # rows tied at each distinct score, highest score first
    tp = np.cumsum(np.bincount(group[labels], minlength=len(uniq))[::-1])
    fp = np.cumsum(np.bincount(group[~labels], minlength=len(uniq))[::-1])
    return RocCurve(thresholds=np.concatenate(([np.inf], uniq[::-1])), tp=np.concatenate(([0], tp)),
                    fp=np.concatenate(([0], fp)), positives=pos, negatives=neg)


def roc_from_sweep(thresholds, decision_rows, labels) -> RocCurve:
    """ROC from explicit per-threshold decision rows of a detector sweep."""
    labels, pos, neg = _check_labels(labels)
    thresholds = np.asarray(thresholds, dtype=float)
    decision_rows = np.asarray(decision_rows)
    if decision_rows.shape != (len(thresholds), len(labels)):
        raise ValueError("decision matrix must be (n_thresholds x n_samples)")
    decisions = decision_rows.astype(bool)
    tp = np.count_nonzero(decisions & labels, axis=1)
    fp = np.count_nonzero(decisions & ~labels, axis=1)
    for th, tp_c, fp_c in ((np.inf, 0, 0), (-np.inf, pos, neg)):
        if not np.any((tp == tp_c) & (fp == fp_c)):
            thresholds, tp, fp = np.append(thresholds, th), np.append(tp, tp_c), np.append(fp, fp_c)
    # stable, so points tied on (fp, tp) keep the grid order, corners last
    order = np.lexsort((tp, fp))
    return RocCurve(thresholds=thresholds[order], tp=tp[order], fp=fp[order], positives=pos, negatives=neg)


def best_operating_index(roc: RocCurve) -> int:
    """Index of the point nearest (0, 1), compared exactly on the counts.

    (pos * neg * distance)^2 = (fp * pos)^2 + ((pos - tp) * neg)^2 in Python ints.
    Ties prefer higher tpr, then the smaller threshold value, then the earlier point.
    """
    tp, fp, th = roc.tp.tolist(), roc.fp.tolist(), roc.thresholds.tolist()
    pos, neg = int(roc.positives), int(roc.negatives)
    return min(range(len(tp)), key=lambda i: ((fp[i] * pos) ** 2 + ((pos - tp[i]) * neg) ** 2, -tp[i], th[i]))


def _ratio(num: int, den: int, name: str, undefined: list[str]) -> float:
    if den == 0:
        undefined.append(name)
        return float("nan")
    return num / den


def metrics_at(roc: RocCurve, i: int) -> MetricSet:
    """Accuracy, precision, recall, false-positive rate at point i of a curve.

    A 0/0 ratio (e.g. precision at the never-alarm point) is NaN and the
    metric's name lands in ``undefined``.
    """
    tp, fp = int(roc.tp[i]), int(roc.fp[i])
    pos, neg = roc.positives, roc.negatives
    undefined: list[str] = []
    return MetricSet(
        accuracy=_ratio(tp + neg - fp, pos + neg, "accuracy", undefined),
        precision=_ratio(tp, tp + fp, "precision", undefined),
        recall=_ratio(tp, pos, "recall", undefined),
        fpr=_ratio(fp, neg, "fpr", undefined),
        undefined=tuple(undefined),
    )
