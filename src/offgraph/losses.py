"""Focal loss for the imbalanced binary objective.

For a positive sample the loss is -alpha * (1 - p)^gamma * log(p); for a
negative it is -(1 - alpha) * p^gamma * log(1 - p). Easy samples (p near the
label) are down-weighted by the gamma power. Probabilities are clamped to
[1e-7, 1 - 1e-7] so the log stays finite; that bound also caps the
achievable per-sample loss. Batches reduce by the mean, which keeps the loss
scale independent of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, clip, log, mul, power, reduce_mean, sub

__all__ = ["FocalParams", "focal_loss", "focal_loss_tensor", "PROB_CLAMP"]

PROB_CLAMP = 1e-7


@dataclass
class FocalParams:
    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        if not self.gamma < np.inf:  # NaN fails this too
            raise ValueError(f"gamma must be finite, got {self.gamma}")


def focal_loss(y_pred, y_true, params: FocalParams | None = None) -> float:
    """Plain-number focal loss; arrays reduce by the mean."""
    params = params or FocalParams()
    p = np.clip(np.asarray(y_pred, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(y_true, dtype=np.float64)
    p_true = np.where(y == 1.0, p, 1.0 - p)
    weight = np.where(y == 1.0, params.alpha, 1.0 - params.alpha)
    return float(np.mean(-weight * (1.0 - p_true) ** params.gamma * np.log(p_true)))


def focal_loss_tensor(probs: Tensor, labels, params: FocalParams | None = None) -> Tensor:
    """Differentiable batch focal loss over probabilities [B]."""
    params = params or FocalParams()
    y = Tensor(np.asarray(labels, dtype=np.float64))
    p = clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    p_true = mul(p, y) + mul(sub(Tensor(1.0), p), sub(Tensor(1.0), y))
    weight = Tensor(np.where(np.asarray(labels) == 1, params.alpha, 1.0 - params.alpha))
    terms = mul(mul(weight, power(sub(Tensor(1.0), p_true), params.gamma)), log(p_true))
    return -reduce_mean(terms)
