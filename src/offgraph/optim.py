"""Parameter initialization and the Adam optimizer."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import fields

import numpy as np

from .tensor import Tensor

__all__ = ["xavier_normal_init", "ones_init", "zeros_init", "named_tensors", "Adam"]


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
    """Adam over ``(parameters, learning_rate)`` groups that step together: it owns each
    parameter's first and second moments and the one step count; every update is elementwise."""

    def __init__(self, groups: Iterable[tuple[list[Tensor], float]]):
        pairs = [(p, rate) for params, rate in groups for p in params]
        self.params = [p for p, _ in pairs]
        self.learning_rates = [rate for _, rate in pairs]
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self) -> None:
        """One bias-corrected adaptive-moment update from each ``.grad``, in place; then
        every ``.grad`` is ``None``, so a second step needs a fresh ``backward()``."""
        grads = [p.grad for p in self.params]
        for p, g in zip(self.params, grads):
            if g is None or p.shape != g.shape:
                raise ValueError("every parameter needs a gradient of its own shape")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for p, g, rate, m, v in zip(self.params, grads, self.learning_rates, self.first_moment, self.second_moment):
            m[...] = BETA1 * m + (1.0 - BETA1) * g
            v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
            p.data -= rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
            p.grad = None
