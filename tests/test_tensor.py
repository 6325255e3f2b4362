"""Numeric core: forward values, backward gradients, tape semantics."""

import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offgraph import resources
from offgraph import tensor as T
from offgraph.tensor import Tensor

from gradcheck import assert_gradients_match, away_from_kinks


def _rand(rng, *shape):
    return Tensor(away_from_kinks(rng.uniform(-2.0, 2.0, shape)), requires_grad=True)


def test_sum_of_matrix_has_unit_gradient():
    w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    w.sum().backward()
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_relu_gradient_is_step_function():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    T.relu(x).sum().backward()
    assert np.array_equal(x.grad, np.array([0.0, 1.0]))


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * x).backward()


def test_repeated_backward_accumulates():
    x = Tensor([3.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.allclose(x.grad, 2.0 * first)


def test_backward_keeps_gradients_on_leaves_only():
    rng = np.random.default_rng(9)
    a = _rand(rng, 3, 4)
    b = _rand(rng, 4, 2)
    kept = {}

    def fn():
        kept["hidden"] = T.relu(a @ b)
        kept["probs"] = T.softmax(kept["hidden"], axis=-1)
        return (kept["probs"] * kept["hidden"]).mean()

    assert_gradients_match(fn, [a, b])
    fn().backward()
    assert kept["hidden"].requires_grad and kept["hidden"].grad is None
    assert kept["probs"].requires_grad and kept["probs"].grad is None


def test_a_scalar_leaf_gets_a_0d_float64_array_gradient():
    x = Tensor(2.0, requires_grad=True)
    (x * x).mean().backward()  # 0-d numpy arithmetic returns scalars, not arrays
    assert type(x.grad) is np.ndarray and x.grad.dtype == np.float64 and x.grad.shape == ()
    assert x.grad == 4.0
    (x * x).mean().backward()
    assert type(x.grad) is np.ndarray and x.grad == 8.0
    x.backward()  # the loss is the leaf itself
    assert type(x.grad) is np.ndarray and x.grad == 9.0


@pytest.fixture
def switching():
    """Hand the interpreter between threads as often as it can."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(before)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_leafs_gradients_sum_in_the_order_they_arrive(monkeypatch, switching, workers):
    """One weight feeds three products whose gradients cancel to 1.0 only when summed in the
    tape's order: last product's first, as a walk that sums as it goes meets them."""
    monkeypatch.setattr(resources, "scoring_workers", lambda: workers)
    parts = [1.0, -1e16, 1e16]  # the weight's gradient from each product, in the order of the sum below
    sums = {(p + q) + r for p, q, r in itertools.permutations(parts)}
    assert len(sums) > 1  # another order would give other bits
    w = Tensor(np.ones((1, 1)), requires_grad=True)
    one = Tensor(np.ones((1, 1)))
    terms = [(one @ w) * Tensor(c) for c in parts]
    loss = (terms[0] + terms[1] + terms[2]).sum()
    for _ in range(5):
        w.grad = None
        loss.backward()
        assert w.grad.tolist() == [[(parts[2] + parts[1]) + parts[0]]] == [[1.0]]


@pytest.mark.parametrize(
    "workers, failing",
    [
        pytest.param(1, "_scatter", id="1"),
        pytest.param(3, "_scatter", id="3"),
        pytest.param(3, "_unbroadcast", id="3-walk"),
    ],
)
def test_a_failing_deferred_gradient_raises_from_backward_and_changes_no_gradient(
    monkeypatch, switching, workers, failing
):
    """``_scatter`` computes the table's deferred gradient, on a helper thread above one worker.
    ``_unbroadcast`` fails on the calling thread, in ``x * x``'s closure, after that gradient was queued."""
    monkeypatch.setattr(resources, "scoring_workers", lambda: workers)
    table = Tensor(np.ones((3, 2)), requires_grad=True)
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum() + T.gather_rows(table, [0, 2, 0]).sum()  # the walk meets the table first
    on_main = {}

    def watched(name, call):
        def run(*args):
            on_main.setdefault(name, []).append(threading.current_thread() is threading.main_thread())
            if name == failing:
                raise RuntimeError(f"{name} failed")
            return call(*args)

        return run

    for name in ("_scatter", "_unbroadcast"):
        monkeypatch.setattr(T, name, watched(name, getattr(T, name)))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        loss.backward()
    assert threading.active_count() == threads
    assert on_main["_scatter"] == [workers == 1]  # with more than one worker, on a helper thread
    assert table.grad is None and x.grad is None


def test_no_grad_records_nothing():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.no_grad():
        y = T.softmax(T.relu(w @ w) + w, axis=-1).sum()
    assert not y.requires_grad
    assert y._node is None
    assert (w @ w).requires_grad  # recording resumes after the block


# Ops whose gradient formula reads no input values, each as a function of its input.
_INPUT_FREE_OPS = {
    "add": lambda h: h + Tensor(np.linspace(-1.0, 1.0, 4)),
    "sub": lambda h: Tensor(0.5) - h,
    "mul_by_constant": lambda h: h * Tensor(np.linspace(0.5, 2.0, 4)),
    "softmax": lambda h: T.softmax(h, axis=-1),
    "layer_norm": lambda h: T.layer_norm(h, Tensor(np.linspace(0.5, 1.5, 4)), Tensor(np.zeros(4))),
    "dropout": lambda h: T.dropout(h, 0.5, rng=np.random.default_rng(1)),
    "reduce_sum": lambda h: T.reduce_sum(h, axis=0),
    "reshape_copy": lambda h: T.reshape(T.transpose(h), (12,)),  # a transposed view cannot reshape in place
}


@pytest.mark.parametrize("name", sorted(_INPUT_FREE_OPS))
def test_the_tape_keeps_no_input_array_its_gradient_does_not_read(name):
    op = _INPUT_FREE_OPS[name]
    rng = np.random.default_rng(8)
    x = _rand(rng, 3, 4)
    shift = Tensor(rng.uniform(-1.0, 1.0, (3, 4)))

    def fn():
        y = op(x + shift)
        return (y * y).sum()

    assert_gradients_match(fn, [x])
    expected = x.grad
    x.grad = None
    hidden = x + shift  # an intermediate, so only the tape could keep its array
    ref = weakref.ref(hidden.data)
    y = op(hidden)
    loss = (y * y).sum()
    del hidden, y
    assert ref() is None, f"{name} keeps its input array on the tape"
    loss.backward()
    assert np.array_equal(x.grad, expected)


def test_no_grad_restores_the_flag_after_an_exception():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            with T.no_grad():
                pass
            assert not (w * w).requires_grad  # still off after a nested block
            raise RuntimeError("boom")
    assert (w * w).requires_grad


def test_indexing_rejects_array_keys():
    # an index array may repeat a row, and the slice's backward would keep one repeat's gradient
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    for key in ([1, 1], np.array([2, 0, 2]), (slice(None), [0, 0]), np.array([True, False, True, False]), True):
        with pytest.raises(ValueError, match="gather_rows"):
            x[key]
    x[1:3, 0].sum().backward()
    assert x.grad[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0]


def test_gradients_not_stored_without_requires_grad():
    x = Tensor([1.0, 2.0])
    w = Tensor([2.0, 3.0], requires_grad=True)
    (x * w).sum().backward()
    assert x.grad is None
    assert w.grad is not None


@pytest.mark.parametrize("seed", range(3))
def test_composed_expression_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = _rand(rng, 3, 4)
    b = _rand(rng, 4, 2)
    c = _rand(rng, 3, 2)

    def fn():
        y = T.relu(a @ b) + c * c
        return T.reduce_mean(T.softmax(y, axis=-1) * y)

    assert_gradients_match(fn, [a, b, c])


def test_every_primitive_matches_finite_differences():
    rng = np.random.default_rng(42)
    x = _rand(rng, 4, 5)
    w = _rand(rng, 5, 3)
    g = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, 5), requires_grad=True)
    pos = Tensor(rng.uniform(0.2, 2.0, (4, 5)), requires_grad=True)
    idx = np.array([0, 2, 2, 3])
    stack = _rand(rng, 2, 3, 5)
    weights = Tensor(rng.uniform(-1.0, 1.0, (3, 2, 5)))
    key_mask = np.where(np.arange(5) < np.array([[5], [3], [1], [4]]), 0.0, -np.inf)
    cases = {
        "add": (lambda: (x + pos).sum(), [x, pos]),
        "sub": (lambda: (x - pos).mean(), [x, pos]),
        "mul": (lambda: (x * pos).sum(), [x, pos]),
        "matmul": (lambda: (x @ w).sum(), [x, w]),
        "transpose": (lambda: (x.T @ x).sum(), [x]),
        "reshape": (lambda: x.reshape(2, 10).sum(axis=0).mean(), [x]),
        "slice": (lambda: x[1:3, ::2].sum(), [x]),
        "concat": (lambda: T.concat([x, pos], axis=1).mean(), [x, pos]),
        "gather_rows": (lambda: T.gather_rows(x, idx).sum(), [x]),
        "power": (lambda: T.power(pos, 1.7).sum(), [pos]),
        "log": (lambda: T.log(pos).sum(), [pos]),
        "exp": (lambda: T.exp(x).mean(), [x]),
        "sum_axis": (lambda: T.reduce_sum(x, axis=1).mean(), [x]),
        "mean_keepdims": (lambda: T.reduce_mean(x, axis=0, keepdims=True).sum(), [x]),
        "relu": (lambda: T.relu(x).sum(), [x]),
        "leaky_relu": (lambda: T.leaky_relu(x).sum(), [x]),
        "elu": (lambda: T.elu(x).sum(), [x]),
        "sigmoid": (lambda: T.sigmoid(x).mean(), [x]),
        "softmax": (lambda: (T.softmax(x, axis=-1) * pos).sum(), [x, pos]),
        "layer_norm": (lambda: (T.layer_norm(x, g, b) * pos).sum(), [x, g, b]),
        "clip": (lambda: T.clip(pos, 0.3, 1.9).sum(), [pos]),
        "matmul_batched_rows": (lambda: (T.reshape(x, (2, 2, 5)) @ w).mean(), [x, w]),
        "batched_matmul": (lambda: T.batched_matmul(stack, T.reshape(pos, (2, 5, 2))).sum(), [stack, pos]),
        "transpose_axes": (lambda: (T.transpose(stack, (1, 0, 2)) * weights).sum(), [stack]),
        "masked_softmax": (lambda: (T.softmax(x, axis=-1, mask=key_mask) * pos).sum(), [x, pos]),
    }
    for name, (fn, tensors) in cases.items():
        try:
            assert_gradients_match(fn, tensors)
        except AssertionError as exc:  # identify the failing primitive
            raise AssertionError(f"{name}: {exc}") from exc


def test_segment_ops_match_finite_differences():
    rng = np.random.default_rng(7)
    seg = np.array([0, 0, 1, 1, 1, 2, 2])
    for shape in ((7,), (7, 2)):  # one score per edge, and one per edge and head
        scores = Tensor(rng.uniform(-1.5, 1.5, shape), requires_grad=True)
        values = Tensor(rng.uniform(-1.0, 1.0, (7, 3)), requires_grad=True)
        weights = Tensor(rng.uniform(0.5, 1.5, shape))

        def fn():
            alpha = T.segment_softmax(scores, seg, 3)
            weighted = T.mul(T.reshape(alpha * weights, (7, -1, 1)), T.reshape(values, (7, 1, 3)))
            return T.segment_sum(T.reshape(weighted, (7, -1)), seg, 3).sum()

        assert_gradients_match(fn, [scores, values])


@st.composite
def _scatter_cases(draw):
    """A row count, an [E] (E may be 0) or [B, S] index with repeats and unused rows likely, a width, a seed.

    Width ``None`` means 1-D tables and [E] scores; otherwise rows and scores have ``width`` columns.
    """
    rows = draw(st.integers(1, 6))
    index_shape = draw(st.one_of(st.tuples(st.integers(0, 12)), st.tuples(st.integers(1, 3), st.integers(1, 4))))
    size = math.prod(index_shape)
    ids = draw(st.lists(st.integers(0, rows - 1), min_size=size, max_size=size))
    width = draw(st.sampled_from([None, 1, 3]))
    return rows, np.array(ids, dtype=np.int64).reshape(index_shape), width, draw(st.integers(0, 2**16))


def _add_at(rows, index, values):
    out = np.zeros((rows,) + values.shape[index.ndim :])
    np.add.at(out, index, values)
    return out


@given(_scatter_cases())
def test_scatters_match_a_row_wise_reference(case):
    rows, index, width, seed = case
    rng = np.random.default_rng(seed)
    row_shape = () if width is None else (width,)
    seg = index.reshape(-1)

    table = Tensor(rng.normal(size=(rows,) + row_shape), requires_grad=True)
    upstream = rng.normal(size=index.shape + row_shape)
    (T.gather_rows(table, index) * upstream).sum().backward()
    assert np.array_equal(table.grad, _add_at(rows, index, upstream))

    values = rng.normal(size=(seg.size, 1 if width is None else width))
    assert np.array_equal(T.segment_sum(Tensor(values), seg, rows).data, _add_at(rows, seg, values))

    scores = Tensor(rng.normal(0.0, 3.0, size=seg.shape + row_shape), requires_grad=True)
    upstream = rng.normal(size=scores.shape)
    alpha = T.segment_softmax(scores, seg, rows)
    (alpha * upstream).sum().backward()
    highs = np.full((rows,) + row_shape, -np.inf)
    np.maximum.at(highs, seg, scores.data)
    ex = np.exp(scores.data - highs[seg])
    expected = ex / _add_at(rows, seg, ex)[seg]
    assert np.array_equal(alpha.data, expected)
    assert np.array_equal(scores.grad, expected * (upstream - _add_at(rows, seg, expected * upstream)[seg]))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = T.softmax(Tensor(rng.normal(0, 3, (50, 9))), axis=-1)
    assert np.all(y.data >= 0)
    assert np.max(np.abs(y.data.sum(axis=-1) - 1.0)) < 1e-9


def test_softmax_single_element_row():
    assert T.softmax(Tensor([[4.2]]), axis=-1).data.tolist() == [[1.0]]


def test_softmax_hand_case():
    y = T.softmax(Tensor([[0.0, np.log(3.0)]]), axis=-1)
    assert np.allclose(y.data, [[0.25, 0.75]], atol=1e-12)


@pytest.mark.parametrize("padded", [False, True])
def test_softmax_equals_the_three_temporary_reference_and_leaves_its_input(padded):
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(0, 3, (2, 3, 5, 5)))
    before = x.data.copy()
    mask = np.where(rng.random((2, 1, 1, 5)) < 0.4, -np.inf, 0.0) if padded else None
    if padded:
        mask[..., 0] = 0.0  # every row keeps at least one entry
    scores = x.data if mask is None else x.data + mask
    shifted = scores - scores.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    assert np.array_equal(T.softmax(x, axis=-1, mask=mask).data, ex / ex.sum(axis=-1, keepdims=True))
    assert np.array_equal(x.data, before)


@pytest.mark.parametrize("op, other_shape", [(T.mul, (1, 4)), (T.matmul, (4, 4))])
def test_a_constant_operand_gets_no_gradient_and_the_other_is_unchanged(op, other_shape):
    rng = np.random.default_rng(6)
    x_data, c_data = rng.normal(size=(3, 4)), rng.normal(size=other_shape)
    upstream = rng.normal(size=(3, 4))
    both = [Tensor(x_data, requires_grad=True), Tensor(c_data, requires_grad=True)]
    (op(*both) * Tensor(upstream)).sum().backward()
    for grad_side in (0, 1):
        pair = [Tensor(x_data), Tensor(c_data)]
        pair[grad_side].requires_grad = True
        (op(*pair) * Tensor(upstream)).sum().backward()
        assert np.array_equal(pair[grad_side].grad, both[grad_side].grad)
        assert pair[1 - grad_side].grad is None


@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=40))),
    st.sampled_from([None, 1, 3]),
    st.floats(1e-3, 50.0),
    st.integers(0, 2**16),
)
def test_segment_softmax_sums_to_one_per_segment(segments, width, scale, seed):
    """[E] and [E, K] scores: each present segment sums to 1 per column; empty ones get nothing."""
    num_segments, ids = segments
    seg = np.array(ids, dtype=np.int64)
    shape = seg.shape if width is None else (len(seg), width)
    alpha = T.segment_softmax(Tensor(np.random.default_rng(seed).normal(0, scale, shape)), seg, num_segments).data
    assert alpha.shape == shape and np.all((alpha >= 0.0) & (alpha <= 1.0))
    sums = np.zeros((num_segments,) + shape[1:])
    np.add.at(sums, seg, alpha)
    present = np.isin(np.arange(num_segments), seg)
    assert np.max(np.abs(sums[present] - 1.0), initial=0.0) < 1e-9
    assert np.all(sums[~present] == 0.0)


def test_layer_norm_constant_row_maps_to_zero():
    x = Tensor(np.full((2, 4), 3.14))
    g = Tensor(np.ones(4))
    b = Tensor(np.zeros(4))
    assert np.max(np.abs(T.layer_norm(x, g, b).data)) < 1e-2  # eps guard, not a blowup
    assert np.all(np.isfinite(T.layer_norm(x, g, b).data))


def test_layer_norm_two_point_row():
    y = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(y.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_statistics_and_shift_invariance():
    rng = np.random.default_rng(11)
    x = rng.normal(0, 2, (30, 16))
    g, b = Tensor(np.ones(16)), Tensor(np.zeros(16))
    y = T.layer_norm(Tensor(x), g, b).data
    assert np.max(np.abs(y.mean(axis=-1))) < 1e-6
    assert np.max(np.abs(y.var(axis=-1) - 1.0)) < 1e-4
    shifted = T.layer_norm(Tensor(x + 5.0), g, b).data
    assert np.max(np.abs(shifted - y)) < 1e-6


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert T.dropout(x, 0.5) is x


def test_dropout_training_mask_and_scale():
    x = Tensor(np.ones((200, 50)), requires_grad=True)
    y = T.dropout(x, 0.5, rng=np.random.default_rng(0))
    values = np.unique(y.data)
    assert set(values.tolist()) <= {0.0, 2.0}
    assert abs(y.data.mean() - 1.0) < 0.05
    y.sum().backward()
    assert np.array_equal(x.grad, np.where(y.data > 0, 2.0, 0.0))


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        T.dropout(Tensor([1.0]), 1.0, rng=np.random.default_rng(0))


def test_dropout_reproducible_for_fixed_seed():
    x = Tensor(np.ones((8, 8)))
    a = T.dropout(x, 0.3, rng=np.random.default_rng(123))
    b = T.dropout(x, 0.3, rng=np.random.default_rng(123))
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("width", [1, 192])
def test_a_product_row_does_not_depend_on_the_rows_beside_it(width):
    """A width-1 product, and a product of one row, round each row as a product of more rows does."""
    rng = np.random.default_rng(9)
    rows, w = rng.normal(size=(2048, 64)), Tensor(rng.normal(size=(64, width)))
    full = T.matmul(Tensor(rows), w).data
    for m in range(1, 2049):
        assert np.array_equal(T.matmul(Tensor(rows[:m]), w).data, full[:m]), m
    for i in (0, 1, 1000, 2047):
        assert np.array_equal(T.matmul(Tensor(rows[i : i + 1]), w).data, full[i : i + 1]), i
