"""Parameter initialization and the Adam optimizer."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .tensor import Tensor

__all__ = ["xavier_normal_init", "ones_init", "zeros_init", "named_tensors", "Adam", "zero_grads"]


def xavier_normal_init(fan_in: int, fan_out: int, rng: np.random.Generator | None) -> Tensor:
    """Trainable [fan_in, fan_out] matrix, entries N(0, 2 / (fan_in + fan_out)) drawn from ``rng``;
    zeros without one, the layout a checkpoint fills."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fans must be positive, got ({fan_in}, {fan_out})")
    if rng is None:
        return Tensor(np.zeros((fan_in, fan_out)), requires_grad=True)
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(std * rng.standard_normal((fan_in, fan_out)), requires_grad=True)


def ones_init(n: int) -> Tensor:
    """Trainable length-``n`` vector of ones (layer-norm gains)."""
    return Tensor(np.ones(n), requires_grad=True)


def zeros_init(n: int) -> Tensor:
    """Trainable length-``n`` vector of zeros (biases)."""
    return Tensor(np.zeros(n), requires_grad=True)


def named_tensors(block, prefix: str) -> dict[str, Tensor]:
    """``{prefix}.{field}`` for each field of the dataclass ``block`` holding a
    tensor, in declaration order; fields that are ``None`` or not tensors are skipped."""
    return {
        f"{prefix}.{field.name}": value
        for field in fields(block)
        if isinstance(value := getattr(block, field.name), Tensor)
    }


BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam bound to a fixed parameter list, for use as one learning-rate group.

    Owns the per-parameter first and second moments and the shared step count.
    """

    def __init__(self, params: list[Tensor], learning_rate: float):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self) -> None:
        """One bias-corrected adaptive-moment update from each ``.grad``, in place."""
        grads = [p.grad for p in self.params]
        for p, g in zip(self.params, grads):
            if g is None or p.shape != g.shape:
                raise ValueError("every parameter needs a gradient of its own shape")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for p, g, m, v in zip(self.params, grads, self.first_moment, self.second_moment):
            m[...] = BETA1 * m + (1.0 - BETA1) * g
            v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
