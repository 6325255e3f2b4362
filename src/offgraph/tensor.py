"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape engine: every recorded operation gets a private node holding
its parents' nodes and a backward closure, and ``Tensor.backward()`` walks
the nodes once in reverse topological order. Arrays are numpy throughout;
float64 everywhere so finite-difference gradient checks have headroom.

What the tape keeps: a node holds no tensor, so an op's output and inputs
stay alive only while the caller holds them or while a backward closure
reads them. Each closure keeps what its own gradient formula reads and no
more: shapes for ``add``, ``sub``, slices, reshapes, reductions and row
lookups; the other operand of ``mul``, ``matmul`` and ``batched_matmul``,
and only for a side that needs a gradient; boolean masks for ``leaky_relu``,
``elu``, ``clip`` and ``dropout``; the output of ``relu``, ``exp``,
``sigmoid``, ``elu`` and the softmaxes. An array no gradient formula reads
(a bias add's input, unscaled attention scores, a softmax's or layer norm's
input) dies as soon as the caller drops it. ``training.fit`` drops each
step's loss right after its backward, so one step's tape is alive at a time:
the ``tracemalloc`` peak of a one-epoch planted fit went from 163 MB, when
every node held its parent tensors and the previous step's tape outlived it,
to 45 MB.

Conventions:
  * tensors built from an op require grad iff any parent does; constants
    stay off the tape entirely,
  * inside ``with no_grad():`` no op is recorded at all: results are plain
    constants, so scoring keeps no backward closures or inputs alive,
  * ``backward()`` accumulates one analytic pass into ``.grad`` of the
    leaves only, the tensors no op produced (parameters and inputs);
    intermediate gradients are dropped as soon as they have been passed on.
    It leaves the tape in place, so a second call accumulates once more.
    ``optim.Adam.step`` sets each gradient it applies back to ``None``.
    A backward closure may return ``None`` for a parent that does not
    require grad; the three products do, so a constant operand costs no
    gradient product,
  * four closures return a ``resources.Job``, a gradient not computed yet,
    for the side that is usually a parameter: ``matmul``'s weight product,
    ``layer_norm``'s gain and bias sums, ``add``'s sum over a broadcast side
    and ``gather_rows``' scatter into its table. No later backward step reads
    a leaf's gradient, so ``backward()`` queues those bound for a leaf on
    ``resources.helper_pool()`` and computes the rest, and all where the pool
    has no helpers, at once. Each leaf's contributions are summed after the
    walk in the order they arrived, as a walk that sums as it goes would:
    every gradient is the same to the bit at any worker count,
  * a function that draws random numbers takes a ``np.random.Generator``
    and draws nothing without one: ``dropout`` with ``rng=None`` is the
    identity, which is evaluation mode. Dropout uses inverted scaling.

Batched sequences are ``[B, S, d]`` arrays. Products with a weight matrix
flatten the leading axes into rows (one ``[B*S, d] @ [d, e]`` product);
``batched_matmul`` is for products between two batched operands, such as the
attention scores. A row of ``matmul``'s product is rounded alike whatever
rows sit beside it, by two rules: numpy hands a one-row or one-column
product to BLAS's matrix-vector routine, which rounds otherwise than its
matrix product, so a width-1 product is a row of elementwise products,
summed, and a one-row product runs as a two-row one. So a batch's forward
run in row parts (``RowDraws``) gives the whole batch's rows to the bit.
The backward formulas are plain products.

Every scatter, that is every fold of many rows into one (the row lookup's
backward and the segment ops), goes through the one helper ``_scatter``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .resources import Job, helper_pool, lock

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "matmul",
    "batched_matmul",
    "transpose",
    "reshape",
    "concat",
    "gather_rows",
    "power",
    "log",
    "exp",
    "reduce_sum",
    "reduce_mean",
    "relu",
    "leaky_relu",
    "elu",
    "sigmoid",
    "softmax",
    "layer_norm",
    "dropout",
    "dropout_scale",
    "RowDraws",
    "clip",
    "segment_softmax",
    "segment_sum",
]

LAYER_NORM_EPS = 1e-5
LEAKY_SLOPE = 0.2  # the graph attention score activation (Velickovic et al. 2018)


class Tensor:
    """A numpy array plus gradient bookkeeping.

    ``data`` is always a float64 ndarray. ``grad`` starts as ``None`` and is
    populated (or accumulated into) by ``backward()`` for every leaf with
    ``requires_grad`` reachable from the loss, as a float64 ndarray too.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        # An op's tape entry, or a requires-grad leaf's own, made here so that threads recording on one
        # parameter at once share it; a leaf made to require grad later gets its node on first use.
        self._node: _Node | None = _Node((), None, self) if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Populate ``.grad`` for every requires-grad leaf reachable from here.

        The loss must be a single element. Repeated calls accumulate one more
        analytic pass each time. Leaves' deferred gradients
        run on ``helper_pool()``'s threads, joined before this returns; a
        failure there is raised here, and then no ``.grad`` changes.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        root = _node_of(self)
        if root is None:
            return
        seed = np.ones_like(self.data)
        pending: dict[_Node, np.ndarray] = {} if root.backward is None else {root: seed}
        arrived: dict[_Node, list] = {root: [seed]} if root.backward is None else {}  # each leaf's, in order
        with helper_pool() as lane:
            for node in reversed(_toposort(root)):
                grad_out = pending.pop(node, None)
                if grad_out is None:
                    continue
                for parent, grad_in in zip(node.parents, node.backward(grad_out)):
                    if parent is None or grad_in is None:
                        continue
                    if isinstance(grad_in, Job):
                        if lane is not None and parent.backward is None:
                            lane.put(grad_in)
                        else:
                            grad_in = grad_in.compute()
                    if parent.backward is None:  # a leaf
                        arrived.setdefault(parent, []).append(grad_in)
                    elif parent in pending:
                        pending[parent] = pending[parent] + grad_in
                    else:
                        pending[parent] = grad_in
        totals = []
        for node, grads in arrived.items():
            total = None
            for grad in grads:
                grad = grad.result() if isinstance(grad, Job) else grad
                total = grad if total is None else total + grad
            totals.append((node.leaf, total))
        for leaf, total in totals:
            total = total if leaf.grad is None else leaf.grad + total
            leaf.grad = np.asarray(total, dtype=np.float64)  # 0-d arithmetic gives numpy scalars

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _slice(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


_grad_enabled = True


@contextmanager
def no_grad():
    """Record no ops inside the block; the previous setting returns on exit.

    The switch is process-wide, not per thread.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class _Node:
    """One tape entry: the parents' nodes (``None`` for a constant) and the backward closure.

    A requires-grad leaf's node has neither; it names the ``leaf`` whose
    ``.grad`` receives the gradient. No node holds an op's output or inputs,
    so an array lives on the tape only if a backward closure keeps it.
    """

    __slots__ = ("parents", "backward", "leaf")

    def __init__(self, parents: tuple[_Node | None, ...], backward, leaf: Tensor | None = None):
        self.parents = parents
        self.backward = backward
        self.leaf = leaf


def _node_of(t: Tensor) -> _Node | None:
    """``t``'s tape node, ``None`` for a constant; a leaf made to require grad after it was built gets its node here."""
    if not t.requires_grad:
        return None
    if t._node is None:
        t._node = _Node((), None, t)
    return t._node


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(_node_of(p) for p in parents)
        if any(nodes):
            out.requires_grad = True
            out._node = _Node(nodes, backward)
    return out


def _toposort(root: _Node) -> list[_Node]:
    """Depth-first post-order over the nodes below ``root`` (acyclic: ``_make`` links only existing nodes)."""
    order: list[_Node] = []
    seen = {root}
    stack: list[tuple[_Node, object]] = [(root, iter(root.parents))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child is not None and child not in seen:
                seen.add(child)
                stack.append((child, iter(child.parents)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def _scatter(ufunc, fill: float, index, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Fold row ``values[i]`` into row ``index[i]`` of a ``[num_rows, ...]`` table filled with ``fill``.

    Rows fold in index order, as a row-wise ``ufunc.at`` would, but through one
    flat slot per (row, column): ``ufunc.at`` is ~10x faster on 1-D operands.
    """
    index = np.asarray(index, dtype=np.int64)
    row_shape = values.shape[index.ndim :]
    width = math.prod(row_shape)
    slots = index.reshape(-1, 1) * width + np.arange(width)
    table = np.full(num_rows * width, fill)
    ufunc.at(table, slots.reshape(-1), values.reshape(-1))
    return table.reshape((num_rows,) + row_shape)


def _summed(grad: np.ndarray, shape: tuple[int, ...]):
    """``grad`` itself where it has ``shape``, else its deferred ``_unbroadcast`` (a bias's gradient)."""
    return grad if grad.shape == shape else Job(lambda: _unbroadcast(grad, shape))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- arithmetic ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        return _summed(g, a_shape), _summed(g, b_shape)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_shape, b_shape = a.data.shape, b.data.shape
    # each side's gradient reads the other operand, kept only for a side that needs one
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (
            None if b_data is None else _unbroadcast(g * b_data, a_shape),
            None if a_data is None else _unbroadcast(g * a_data, b_shape),
        )

    return _make(a.data * b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a weight matrix ``b`` [d, e]; ``a`` is [..., d].

    Leading axes of ``a`` flatten into rows, so the product and both
    gradients are single 2-D products and the weight gradient sums over rows
    without a per-sequence ``[B, d, e]`` intermediate.
    """
    if a.ndim < 2 or b.ndim != 2:
        raise ValueError(f"matmul expects [..., d] @ [d, e] operands, got {a.shape} @ {b.shape}")
    rows = a.data.reshape(-1, a.shape[-1])
    a_shape = a.shape
    a_rows = rows if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        g_rows = g.reshape(-1, g.shape[-1])
        return (
            None if b_data is None else (g_rows @ b_data.T).reshape(a_shape),
            None if a_rows is None else Job(lambda: a_rows.T @ g_rows),
        )

    return _make(_row_product(rows, b.data).reshape(*a_shape[:-1], b.shape[1]), (a, b), backward)


def _row_product(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``rows @ w``, each row rounded alike whatever rows sit beside it (the module's two product rules)."""
    if w.shape[1] == 1:
        return (rows * w[:, 0]).sum(axis=1, keepdims=True)
    if len(rows) == 1:
        return (np.concatenate((rows, rows)) @ w)[:1]
    return rows @ w


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked products ``a[i] @ b[i]`` over identical leading axes, e.g. [B, H, S, S] @ [B, H, S, d]."""
    if a.ndim < 3 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"batched_matmul expects [..., m, k] @ [..., k, n] operands, got {a.shape} @ {b.shape}")

    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (
            None if b_data is None else g @ np.swapaxes(b_data, -1, -2),
            None if a_data is None else np.swapaxes(a_data, -1, -2) @ g,
        )

    return _make(a.data @ b.data, (a, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes as ``np.transpose``; the default reverses them (``.T``)."""
    axes = tuple(range(a.ndim))[::-1] if axes is None else tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return _make(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), backward)


_BASIC_KEYS = (int, np.integer, slice, type(None), type(Ellipsis))


def _slice(a: Tensor, key) -> Tensor:
    """Basic indexing only: with a repeating index array, ``full[key] = g`` would keep one repeat's gradient."""
    parts = key if isinstance(key, tuple) else (key,)
    if any(isinstance(p, bool) or not isinstance(p, _BASIC_KEYS) for p in parts):
        raise ValueError(f"tensors take basic indices only, got {key!r}; use gather_rows for a row lookup")

    a_shape = a.shape

    def backward(g):
        full = np.zeros(a_shape)
        full[key] = g
        return (full,)

    return _make(a.data[key], (a,), backward)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of an empty sequence")
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Row lookup ``a[indices]``; duplicate indices accumulate on backward."""
    idx = np.asarray(indices, dtype=np.int64)
    num_rows = a.shape[0]

    def backward(g):
        return (Job(lambda: _scatter(np.add, 0.0, idx, g, num_rows)),)

    return _make(a.data[idx], (a,), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    a_data = a.data

    def backward(g):
        if exponent == 0.0:
            return (np.zeros_like(a_data),)
        return (g * exponent * a_data ** (exponent - 1.0),)

    return _make(a.data ** exponent, (a,), backward)


def log(a: Tensor) -> Tensor:
    a_data = a.data

    def backward(g):
        return (g / a_data,)

    return _make(np.log(a.data), (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        return (g * out_data,)

    return _make(out_data, (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a_shape = a.shape

    def backward(g):
        expanded = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a_shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a_shape = a.shape
    count = a.size if axis is None else a_shape[axis]

    def backward(g):
        expanded = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a_shape) / count,)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


# -- activations ---------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    # Keeps its output, not a mask: in the model the next product keeps that array for its
    # weight gradient anyway, and a mask made here would cost scoring time off the tape.
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (out_data > 0.0),)

    return _make(out_data, (a,), backward)


def leaky_relu(a: Tensor) -> Tensor:
    """``x`` above zero, ``LEAKY_SLOPE * x`` below."""
    positive = a.data > 0.0

    def backward(g):
        return (g * np.where(positive, 1.0, LEAKY_SLOPE),)

    return _make(np.where(positive, a.data, LEAKY_SLOPE * a.data), (a,), backward)


def elu(a: Tensor) -> Tensor:
    """ELU with alpha 1: ``x`` above zero, ``exp(x) - 1`` below."""
    positive = a.data > 0.0
    out_data = np.where(positive, a.data, np.expm1(a.data))

    def backward(g):
        return (g * np.where(positive, 1.0, out_data + 1.0),)

    return _make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # exp(-|x|) never overflows: 1 / (1 + e) above zero, e / (1 + e) below
    e = np.exp(-np.abs(a.data))
    out_data = np.where(a.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), backward)


def softmax(a: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Max-shifted softmax along ``axis``; rows sum to 1.

    ``mask`` is a constant added to the scores before normalizing and
    broadcast against them: 0 keeps an entry, ``-inf`` gives it probability
    exactly 0 (key padding). Every row needs at least one kept entry.
    """
    scores = a.data if mask is None else a.data + mask
    # One fresh array, then exp and the divide in place; never into scores, which may be a.data.
    out_data = scores - scores.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return _make(out_data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of the last axis to zero mean, unit variance, then affine."""
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ValueError(f"layer_norm affine parameters must have shape ({dim},)")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    inv = 1.0 / np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True) + LAYER_NORM_EPS)
    normed = centered * inv
    gain_data = gain.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        d_gain = Job(lambda: (g * normed).sum(axis=lead))
        d_bias = Job(lambda: g.sum(axis=lead))
        d_normed = g * gain_data
        d_x = inv * (
            d_normed
            - d_normed.mean(axis=-1, keepdims=True)
            - normed * (d_normed * normed).mean(axis=-1, keepdims=True)
        )
        return d_x, d_gain, d_bias

    return _make(normed * gain.data + bias.data, (x, gain, bias), backward)


def dropout_scale(shape, rate: float, rng: np.random.Generator | None, at=...) -> np.ndarray | None:
    """Inverted-dropout multipliers for one mask over ``shape``, read at ``at``.

    Each entry is 0 with probability ``rate`` and ``1 / (1 - rate)`` otherwise.
    The uniforms are drawn over all of ``shape``, so the random stream does
    not depend on ``at``; only the entries read are thresholded. Returns
    ``None`` and draws nothing without ``rng`` (evaluation mode) or at rate 0.
    """
    kept = _kept(shape, rate, rng, at)
    return None if kept is None else kept / (1.0 - rate)


def _kept(shape, rate: float, rng: np.random.Generator | RowDraws | None, at=...) -> np.ndarray | None:
    """The boolean survivors of ``dropout_scale``'s mask, from the same draw."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    if isinstance(rng, RowDraws):
        return rng.kept(shape, rate)
    return rng.random(shape)[at] >= rate


class RowDraws:
    """Dropout for rows ``[lo, hi)`` of a batch whose other rows other forwards take, maybe at once.

    ``parts(rng, bounds)`` gives one per ``(lo, hi)``, to pass where each
    forward takes ``rng``. A part's k-th ``dropout`` reads its rows of the
    batch's k-th mask, which the first part to get there draws from ``rng``
    over the whole batch and thresholds. So the parts draw what one forward
    over the batch would, in its order, and each row keeps its mask. A mask
    is let go once every part has read it. For ``dropout`` only:
    ``dropout_scale(..., at)`` takes a generator.
    """

    __slots__ = ("_shared", "_lo", "_hi", "_site")

    def __init__(self, shared: tuple, lo: int, hi: int):
        self._shared, self._lo, self._hi, self._site = shared, lo, hi, 0

    @staticmethod
    def parts(rng: np.random.Generator, bounds: list[tuple[int, int]]) -> list[RowDraws]:
        masks: list[list] = []  # per site, in draw order: [boolean mask, parts yet to read it]
        shared = (rng, bounds[-1][1], len(bounds), lock(), masks)
        return [RowDraws(shared, lo, hi) for lo, hi in bounds]

    def kept(self, shape, rate: float) -> np.ndarray:
        rng, rows, parts, guard, masks = self._shared
        with guard:
            if self._site == len(masks):
                masks.append([rng.random((rows, *shape[1:])) >= rate, parts])
            entry = masks[self._site]
            kept, entry[1] = entry[0], entry[1] - 1
            if entry[1] == 0:
                entry[0] = None
        self._site += 1
        if kept.shape[1:] != tuple(shape[1:]) or shape[0] != self._hi - self._lo:
            raise ValueError(f"rows [{self._lo}, {self._hi}) of a {list(kept.shape)} mask do not fit {list(shape)}")
        return kept[self._lo : self._hi]


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate`` and rescale survivors.

    Without ``rng`` (evaluation mode) it is the exact identity. The tape keeps
    the boolean mask, not the float64 multipliers: backward divides it by
    ``1 - rate`` again, which gives the same values.
    """
    kept = _kept(x.shape, rate, rng)
    if kept is None:
        return x

    def backward(g):
        return (g * (kept / (1.0 - rate)),)

    return _make(x.data * (kept / (1.0 - rate)), (x,), backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient passes through only strictly inside the interval."""
    inside = (x.data > low) & (x.data < high)

    def backward(g):
        return (g * inside,)

    return _make(np.clip(x.data, low, high), (x,), backward)


# -- segment operations (sparse neighborhoods) ---------------------------


def segment_softmax(scores: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over groups of entries of ``scores``, max-shifted per segment.

    ``scores`` is [E] or [E, K]; ``segment_ids[e]`` names the group of row
    ``e``, and each column is normalized on its own, so entries of one group
    sum to 1 per column. Empty segments simply contribute no entries.
    """
    if scores.ndim not in (1, 2):
        raise ValueError(f"segment_softmax expects [E] or [E, K] scores, got {scores.shape}")
    seg = np.asarray(segment_ids, dtype=np.int64)
    ex = np.exp(scores.data - _scatter(np.maximum, -np.inf, seg, scores.data, num_segments)[seg])
    out_data = ex / _scatter(np.add, 0.0, seg, ex, num_segments)[seg]

    def backward(g):
        inner = _scatter(np.add, 0.0, seg, out_data * g, num_segments)
        return (out_data * (g - inner[seg]),)

    return _make(out_data, (scores,), backward)


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets."""
    if values.ndim != 2:
        raise ValueError(f"segment_sum expects 2-D values, got {values.shape}")
    seg = np.asarray(segment_ids, dtype=np.int64)

    def backward(g):
        return (g[seg],)

    return _make(_scatter(np.add, 0.0, seg, values.data, num_segments), (values,), backward)
