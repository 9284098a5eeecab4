"""Detector scoring: confusion metrics, ROC curves, operating points.

Score-based detectors get the standard ROC construction (thresholds are
the descending unique scores behind a +inf sentinel, decision is
score >= threshold); sweep-based detectors (GLRT over its false-alarm
grid, CUSUM over its alarm-threshold grid) get a curve built from their
per-threshold decision rows, completed with the never/always-alarm corner
points when the grid does not reach them. AUC is the trapezoid under
either curve. The preferred operating point minimizes the Euclidean
distance to the ideal corner (0, 1); metrics whose denominator is empty
come back as NaN together with an explicit flag naming them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionCounts",
    "MetricSet",
    "RocCurve",
    "auc_trapezoid",
    "best_operating_index",
    "best_threshold",
    "confusion",
    "metrics_at_threshold",
    "metrics_from_confusion",
    "roc_from_scores",
    "roc_from_sweep",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(labels, decisions) -> ConfusionCounts:
    labels = np.asarray(labels).astype(bool)
    decisions = np.asarray(decisions).astype(bool)
    if labels.shape != decisions.shape:
        raise ValueError("labels and decisions must have equal length")
    return ConfusionCounts(
        tp=int(np.sum(decisions & labels)),
        fp=int(np.sum(decisions & ~labels)),
        tn=int(np.sum(~decisions & ~labels)),
        fn=int(np.sum(~decisions & labels)),
    )


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: float
    recall: float
    fpr: float
    undefined: tuple[str, ...] = ()


def _ratio(num: int, den: int, name: str, undefined: list[str]) -> float:
    if den == 0:
        undefined.append(name)
        return float("nan")
    return num / den


def metrics_from_confusion(c: ConfusionCounts) -> MetricSet:
    """Accuracy, precision, recall, false-positive rate.

    A 0/0 ratio (e.g. precision with no positive predictions) is NaN and
    the metric's name lands in ``undefined``.
    """
    undefined: list[str] = []
    accuracy = _ratio(c.tp + c.tn, c.total, "accuracy", undefined)
    precision = _ratio(c.tp, c.tp + c.fp, "precision", undefined)
    recall = _ratio(c.tp, c.tp + c.fn, "recall", undefined)
    fpr = _ratio(c.fp, c.fp + c.tn, "fpr", undefined)
    return MetricSet(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        fpr=fpr,
        undefined=tuple(undefined),
    )


@dataclass
class RocCurve:
    """Operating points sorted by (fpr, tpr), spanning (0,0) to (1,1).

    thresholds[i] is the detector parameter that produced point i; corner
    points synthesized to complete a sweep curve carry +inf (never alarm)
    or -inf (always alarm).
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def auc_trapezoid(fpr, tpr) -> float:
    fpr = np.asarray(fpr, dtype=float)
    tpr = np.asarray(tpr, dtype=float)
    return float(np.trapezoid(tpr, fpr))


def _check_labels(labels) -> np.ndarray:
    labels = np.asarray(labels).astype(bool)
    if labels.all() or not labels.any():
        raise ValueError("labels must contain both classes for a ROC curve")
    return labels


def roc_from_scores(scores, labels) -> RocCurve:
    """ROC over the score distribution (ties grouped on one point).

    One sort plus cumulative counts (Fawcett 2006, Alg. 2): lowering the
    threshold to the next distinct score adds the rows tied at that score
    to the true- or false-positive count.
    """
    labels = _check_labels(labels)
    scores = np.asarray(scores, dtype=float)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    uniq, group = np.unique(scores, return_inverse=True)
    # rows tied at each distinct score, highest score first
    tp = np.cumsum(np.bincount(group[labels], minlength=len(uniq))[::-1])
    fp = np.cumsum(np.bincount(group[~labels], minlength=len(uniq))[::-1])
    thresholds = np.concatenate(([np.inf], uniq[::-1]))
    tpr = np.concatenate(([0.0], tp / np.count_nonzero(labels)))
    fpr = np.concatenate(([0.0], fp / np.count_nonzero(~labels)))
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc_trapezoid(fpr, tpr))


def roc_from_sweep(thresholds, decision_rows, labels) -> RocCurve:
    """ROC from explicit per-threshold decision rows of a detector sweep."""
    labels = _check_labels(labels)
    thresholds = np.asarray(thresholds, dtype=float)
    decision_rows = np.asarray(decision_rows)
    if decision_rows.shape != (len(thresholds), len(labels)):
        raise ValueError("decision matrix must be (n_thresholds x n_samples)")
    decisions = decision_rows.astype(bool)
    tpr = np.count_nonzero(decisions & labels, axis=1) / np.count_nonzero(labels)
    fpr = np.count_nonzero(decisions & ~labels, axis=1) / np.count_nonzero(~labels)
    if not np.any((fpr == 0.0) & (tpr == 0.0)):
        thresholds, fpr, tpr = np.append(thresholds, np.inf), np.append(fpr, 0.0), np.append(tpr, 0.0)
    if not np.any((fpr == 1.0) & (tpr == 1.0)):
        thresholds, fpr, tpr = np.append(thresholds, -np.inf), np.append(fpr, 1.0), np.append(tpr, 1.0)
    # stable, so points tied on (fpr, tpr) keep the grid order, corners last
    order = np.lexsort((tpr, fpr))
    fpr, tpr = fpr[order], tpr[order]
    return RocCurve(thresholds=thresholds[order], fpr=fpr, tpr=tpr, auc=auc_trapezoid(fpr, tpr))


def best_operating_index(roc: RocCurve) -> int:
    """Index of the point nearest (0, 1).

    Ties prefer higher tpr, then the smaller threshold value.
    """
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


def best_threshold(roc: RocCurve) -> float:
    return float(roc.thresholds[best_operating_index(roc)])


def metrics_at_threshold(scores, labels, threshold: float) -> MetricSet:
    """Metrics of the decision rule score >= threshold."""
    scores = np.asarray(scores, dtype=float)
    return metrics_from_confusion(confusion(labels, scores >= threshold))
