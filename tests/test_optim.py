"""Xavier initialization and Adam update rules."""

import math

import numpy as np
import pytest

from offgraph.optim import Adam, xavier_normal_init
from offgraph.tensor import Tensor


def test_xavier_rejects_zero_fans():
    with pytest.raises(ValueError):
        xavier_normal_init(0, 4, np.random.default_rng(0))


def test_xavier_std_matches_formula():
    w = xavier_normal_init(768, 768, np.random.default_rng(0))
    target = math.sqrt(2.0 / 1536.0)
    assert abs(target - 0.03608) < 5e-5
    assert abs(w.data.std() - target) / target < 0.05
    assert w.requires_grad


def test_xavier_without_a_generator_is_a_trainable_zero_matrix():
    w = xavier_normal_init(3, 4, None)
    assert w.shape == (3, 4) and w.requires_grad
    assert np.array_equal(w.data, np.zeros((3, 4)))


def test_xavier_deterministic_for_fixed_seed():
    a = xavier_normal_init(16, 8, np.random.default_rng(99))
    b = xavier_normal_init(16, 8, np.random.default_rng(99))
    assert np.array_equal(a.data, b.data)


def _param(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def test_adam_zero_gradient_is_fixed_point():
    p = _param([1.5, -2.0])
    opt = Adam([([p], 0.1)])
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.5, -2.0])
    assert opt.step_count == 1


def test_adam_first_step_hand_computed():
    # p=1, g=0.5, lr=0.1: bias correction cancels, so p' ~ 1 - lr * g/|g|
    p = _param([1.0])
    opt = Adam([([p], 0.1)])
    p.grad = np.array([0.5])
    opt.step()
    assert abs(p.data[0] - 0.9) < 1e-7


def test_adam_shape_mismatch_rejected():
    p = _param(np.zeros(3))
    opt = Adam([([p], 0.1)])
    p.grad = np.zeros(4)
    with pytest.raises(ValueError):
        opt.step()


def test_adam_missing_gradient_rejected():
    p = _param(np.zeros(3))
    opt = Adam([([p], 0.1)])
    with pytest.raises(ValueError):
        opt.step()
    assert opt.step_count == 0


def test_adam_converges_on_quadratic():
    # loss = (p - 3)^2, gradient 2(p - 3)
    p = _param([-4.0])
    opt = Adam([([p], 0.05)])
    losses = []
    for _ in range(400):
        losses.append((p.data[0] - 3.0) ** 2)
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    assert opt.step_count == 400
    assert losses[-1] < losses[0] * 1e-3
    assert np.all(np.diff([losses[0], losses[100], losses[200], losses[399]]) < 0)


def test_adam_constant_gradient_moves_monotonically():
    p = _param([0.0])
    opt = Adam([([p], 0.01)])
    trail = []
    for _ in range(100):
        p.grad = np.array([1.0])
        opt.step()
        trail.append(p.data[0])
    assert all(b < a for a, b in zip(trail, trail[1:]))


def test_adam_group_wrapper_uses_tensor_grads():
    w = Tensor([2.0], requires_grad=True)
    b = Tensor([1.0, -1.0], requires_grad=True)
    opt = Adam([([w], 0.5), ([b], 0.1)])
    ((w * w).sum() + (b * b).sum()).backward()
    opt.step()
    assert w.data[0] < 2.0 and b.data[0] < 1.0 and b.data[1] > -1.0
    assert w.grad is None and b.grad is None


def test_a_second_step_without_a_backward_raises():
    w = Tensor([2.0], requires_grad=True)
    opt = Adam([([w], 0.5)])
    (w * w).sum().backward()
    opt.step()
    before = w.data.copy()
    with pytest.raises(ValueError, match="gradient"):
        opt.step()
    assert np.array_equal(w.data, before) and opt.step_count == 1


def test_one_adam_over_two_groups_equals_one_adam_per_group():
    rng = np.random.default_rng(5)
    shapes = ([(3, 4), (4,)], [(2, 2), (5,), (1, 3)])
    rates = (0.05, 0.002)
    joint = [[_param(rng.standard_normal(s)) for s in group] for group in shapes]
    alone = [[_param(p.data.copy()) for p in group] for group in joint]
    shared = Adam(zip(joint, rates))
    single = [Adam([(group, rate)]) for group, rate in zip(alone, rates)]
    for _ in range(4):
        for a, b in zip(sum(joint, []), sum(alone, [])):
            a.grad = rng.standard_normal(a.shape)
            b.grad = a.grad.copy()
        shared.step()
        for opt in single:
            opt.step()
        for a, b in zip(sum(joint, []), sum(alone, [])):
            assert np.array_equal(a.data, b.data)
    assert shared.step_count == 4
