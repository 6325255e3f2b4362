"""Focal loss closed forms and the metric suite against independent oracles."""

import json
import math

import numpy as np
import pytest

from offgraph.losses import FocalParams, focal_loss, focal_loss_tensor
from offgraph.metrics import ConfusionMatrix, auc_score, macro_metrics, metrics_report, MetricsReport
from offgraph.tensor import Tensor

from gradcheck import assert_gradients_match


# -- focal loss -----------------------------------------------------------------


def test_easy_positive_vanishes():
    assert focal_loss(1.0 - 1e-7, 1) < 1e-12


def test_hand_evaluated_positive_case():
    want = 0.25 * 0.1**2 * -math.log(0.9)
    assert abs(focal_loss(0.9, 1) - want) < 1e-12
    assert abs(want - 2.634e-4) < 1e-7


def test_hand_evaluated_negative_case():
    want = 0.75 * 0.81 * -math.log(0.1)
    assert abs(focal_loss(0.9, 0) - want) < 1e-12
    assert abs(want - 1.3988) < 1e-4
    # the hard negative dominates the easy positive by a few thousand times
    assert focal_loss(0.9, 0) / focal_loss(0.9, 1) > 5000


def test_reduces_to_half_cross_entropy():
    params = FocalParams(alpha=0.5, gamma=0.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(0, 2))
        ce = -math.log(p if y == 1 else 1.0 - p)
        assert abs(focal_loss(p, y, params) - 0.5 * ce) < 1e-10


def test_monotone_in_probability():
    grid = np.linspace(0.05, 0.95, 50)
    pos = [focal_loss(p, 1) for p in grid]
    neg = [focal_loss(p, 0) for p in grid]
    assert all(b < a for a, b in zip(pos, pos[1:]))
    assert all(b > a for a, b in zip(neg, neg[1:]))
    assert min(pos + neg) >= 0.0


def test_batch_mean_reduction():
    probs = [0.9, 0.2, 0.7]
    labels = [1, 0, 1]
    want = np.mean([focal_loss(p, y) for p, y in zip(probs, labels)])
    assert abs(focal_loss(probs, labels) - want) < 1e-15


def test_tensor_version_matches_scalar_and_differentiates():
    rng = np.random.default_rng(1)
    probs = rng.uniform(0.05, 0.95, 6)
    labels = rng.integers(0, 2, 6)
    t = Tensor(probs, requires_grad=True)
    loss = focal_loss_tensor(t, labels)
    assert abs(loss.item() - focal_loss(probs, labels)) < 1e-12
    assert_gradients_match(lambda: focal_loss_tensor(t, labels), [t], rtol=1e-4)


def test_focal_params_validation():
    with pytest.raises(ValueError):
        FocalParams(alpha=0.0)
    with pytest.raises(ValueError):
        FocalParams(gamma=-1.0)


# -- AUC ------------------------------------------------------------------------


def _pairwise_auc(scores, labels):
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_worked_example():
    scores = [0.8, 0.4, 0.6, 0.2]
    labels = [1, 1, 0, 0]
    assert auc_score(scores, labels) == 0.75
    assert _pairwise_auc(scores, labels) == 0.75


def test_auc_perfect_separation():
    assert auc_score([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties_is_half():
    assert auc_score([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        auc_score([0.1, 0.9], [1, 1])


def test_auc_rejects_scores_and_labels_of_different_lengths():
    with pytest.raises(ValueError, match="3 scores, 2 labels"):
        auc_score([0.1, 0.2, 0.3], [0, 1])


def test_auc_rank_formula_equals_pairwise_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        scores = rng.choice([0.1, 0.25, 0.5, 0.6, 0.9], size=n)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(auc_score(scores, labels) - _pairwise_auc(scores, labels)) <= 1e-12


def _loop_rank_auc(scores, labels):
    """The per-score mid-rank walk ``auc_score`` used before it grouped ties with ``np.unique``."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    num_pos, num_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[y == 1].sum() - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


def test_auc_equals_the_loop_reference_bit_for_bit():
    rng = np.random.default_rng(4)
    for k in range(300):
        n = int(rng.integers(2, 200))
        levels = int(rng.integers(1, 12))
        scores = rng.integers(0, levels, n) / levels if k % 2 else rng.random(n)
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        assert auc_score(scores, labels) == _loop_rank_auc(scores, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="1 of 4 are NaN or infinite"):
        auc_score([0.1, bad, 0.3, 0.7], [0, 1, 0, 1])


# -- macro metrics -----------------------------------------------------------------


def test_worked_confusion_matrix():
    confusion = ConfusionMatrix(true_positive=8, false_negative=2, false_positive=1, true_negative=9)
    accuracy, precision, recall, f1 = macro_metrics(confusion)
    assert accuracy == 0.85
    assert abs(f1 - 0.8496) < 1e-4
    f1_pos = 2 * (8 / 9) * 0.8 / ((8 / 9) + 0.8)
    f1_neg = 2 * (9 / 11) * 0.9 / ((9 / 11) + 0.9)
    assert abs(f1 - (f1_pos + f1_neg) / 2) < 1e-12


def test_perfect_predictions():
    confusion = ConfusionMatrix.from_predictions([1, 0, 1, 0], [1, 0, 1, 0])
    assert macro_metrics(confusion) == (1.0, 1.0, 1.0, 1.0)


def test_degenerate_single_class_predictor():
    with pytest.warns(RuntimeWarning):
        accuracy, precision, recall, f1 = macro_metrics(
            ConfusionMatrix.from_predictions([1, 1, 0, 0], [1, 1, 1, 1])
        )
    assert recall == 0.5


def test_macro_matches_per_sample_recomputation():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, 200)
    labels[:2] = [0, 1]
    preds = rng.integers(0, 2, 200)
    confusion = ConfusionMatrix.from_predictions(labels, preds)
    assert confusion.total == 200
    accuracy, precision, recall, f1 = macro_metrics(confusion)
    assert accuracy == np.mean(labels == preds)
    per_class_f1 = []
    for cls in (0, 1):
        tp = np.sum((labels == cls) & (preds == cls))
        p = tp / max(np.sum(preds == cls), 1)
        r = tp / np.sum(labels == cls)
        per_class_f1.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
    assert abs(f1 - np.mean(per_class_f1)) < 1e-12


def test_report_roundtrip_and_threshold():
    scores = [0.9, 0.4, 0.6, 0.1]
    labels = [1, 1, 0, 0]
    report = metrics_report(scores, labels)
    assert report.confusion.to_dict() == {"tp": 1, "fn": 1, "fp": 1, "tn": 1}
    payload = json.loads(report.to_json())
    c = payload.pop("confusion")
    back = MetricsReport(**payload, confusion=ConfusionMatrix(c["tp"], c["fn"], c["fp"], c["tn"]))
    assert back == report
    with pytest.raises(ValueError):
        metrics_report([0.5], [1])
