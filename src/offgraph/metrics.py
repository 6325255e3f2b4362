"""Evaluation metrics: rank-statistic AUC plus the macro-averaged suite.

AUC comes from the rank-sum formula over scores sorted ascending, with tied
scores assigned the average of their ranks; it equals the probability that a
random positive outscores a random negative (ties counting half). The other
metrics derive from the binary confusion matrix, per class, then average
without weighting.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["ConfusionMatrix", "MetricsReport", "auc_score", "macro_metrics", "metrics_report"]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts, viewed from the positive (offensive) class."""

    true_positive: int
    false_negative: int
    false_positive: int
    true_negative: int

    @classmethod
    def from_predictions(cls, labels, predictions) -> "ConfusionMatrix":
        y = np.asarray(labels, dtype=np.int64)
        p = np.asarray(predictions, dtype=np.int64)
        if y.shape != p.shape or y.size == 0:
            raise ValueError("labels and predictions must be equal-length and non-empty")
        return cls(
            true_positive=int(np.sum((y == 1) & (p == 1))),
            false_negative=int(np.sum((y == 1) & (p == 0))),
            false_positive=int(np.sum((y == 0) & (p == 1))),
            true_negative=int(np.sum((y == 0) & (p == 0))),
        )

    @property
    def total(self) -> int:
        return self.true_positive + self.false_negative + self.false_positive + self.true_negative

    def for_class(self, cls_label: int) -> tuple[int, int, int, int]:
        """(tp, fn, fp, tn) with ``cls_label`` treated as the positive class."""
        if cls_label == 1:
            return self.true_positive, self.false_negative, self.false_positive, self.true_negative
        return self.true_negative, self.false_positive, self.false_negative, self.true_positive

    def to_dict(self) -> dict:
        return {
            "tp": self.true_positive,
            "fn": self.false_negative,
            "fp": self.false_positive,
            "tn": self.true_negative,
        }


def auc_score(scores, labels) -> float:
    """Rank-sum AUC with mid-rank ties; needs both classes present and finite scores."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.size != y.size:
        raise ValueError(f"AUC needs one score per label: {s.size} scores, {y.size} labels")
    num_pos = int(np.sum(y == 1))
    num_neg = int(np.sum(y == 0))
    if num_pos == 0 or num_neg == 0:
        raise ValueError("AUC is undefined without both classes")
    non_finite = int(np.count_nonzero(~np.isfinite(s)))
    if non_finite:
        raise ValueError(f"AUC needs finite scores; {non_finite} of {s.size} are NaN or infinite")
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - 0.5 * (counts - 1))[group]  # average of the 1-based ranks end-count+1..end of each tie group
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


def _safe_divide(numerator: float, denominator: float, what: str) -> float:
    if denominator == 0:
        warnings.warn(f"{what} has a zero denominator; reporting 0", RuntimeWarning, stacklevel=3)
        return 0.0
    return numerator / denominator


def macro_metrics(confusion: ConfusionMatrix) -> tuple[float, float, float, float]:
    """(accuracy, macro_precision, macro_recall, macro_f1) over both classes."""
    if confusion.total == 0:
        raise ValueError("empty confusion matrix")
    precisions, recalls, f1s = [], [], []
    for cls_label in (0, 1):
        tp, fn, fp, _ = confusion.for_class(cls_label)
        precision = _safe_divide(tp, tp + fp, f"precision of class {cls_label}")
        recall = _safe_divide(tp, tp + fn, f"recall of class {cls_label}")
        f1 = _safe_divide(2.0 * precision * recall, precision + recall, f"F1 of class {cls_label}")
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    accuracy = (confusion.true_positive + confusion.true_negative) / confusion.total
    return accuracy, float(np.mean(precisions)), float(np.mean(recalls)), float(np.mean(f1s))


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: ConfusionMatrix

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": self.confusion.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def metrics_report(scores, labels, threshold: float = 0.5) -> MetricsReport:
    """Full report from probability scores; predictions are score >= threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError("metrics need both classes in the ground truth")
    confusion = ConfusionMatrix.from_predictions(y, (s >= threshold).astype(np.int64))
    accuracy, precision, recall, f1 = macro_metrics(confusion)
    return MetricsReport(
        auc=auc_score(s, y),
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=confusion,
    )
