"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape engine: every operation records its parent tensors and a
backward closure, and ``Tensor.backward()`` walks the recorded graph once in
reverse topological order. Arrays are numpy throughout; float64 everywhere so
finite-difference gradient checks have headroom.

Conventions:
  * tensors built from an op require grad iff any parent does; constants
    stay off the tape entirely,
  * inside ``with no_grad():`` no op is recorded at all: results are plain
    constants, so scoring keeps no backward closures or inputs alive,
  * ``backward()`` accumulates one analytic pass into ``.grad`` of the
    leaves only, the tensors no op produced (parameters and inputs);
    intermediate gradients are dropped as soon as they have been passed on.
    The caller zeroes grads between steps (``optim.zero_grads``),
  * a function that draws random numbers takes a ``np.random.Generator``
    and draws nothing without one: ``dropout`` with ``rng=None`` is the
    identity, which is evaluation mode. Dropout uses inverted scaling.

Batched sequences are ``[B, S, d]`` arrays. Products with a weight matrix
flatten the leading axes into rows (one ``[B*S, d] @ [d, e]`` product);
``batched_matmul`` is for products between two batched operands, such as the
attention scores.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
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
    "clip",
    "segment_softmax",
    "segment_sum",
]


class Tensor:
    """A numpy array plus gradient bookkeeping.

    ``data`` is always a float64 ndarray. ``grad`` starts as ``None`` and is
    populated (or accumulated into) by ``backward()`` for every leaf with
    ``requires_grad`` reachable from the loss.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

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

        The loss must be a single element. Repeated calls without zeroing
        accumulate one more analytic pass each time.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return
        order = _toposort(self)
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad_out = pending.pop(id(node), None)
            if grad_out is None:
                continue
            if node._backward is None:
                node.grad = grad_out if node.grad is None else node.grad + grad_out
                continue
            for parent, grad_in in zip(node._parents, node._backward(grad_out)):
                if not parent.requires_grad or grad_in is None:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + grad_in
                else:
                    pending[key] = grad_in

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


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


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    """Post-order over the requires-grad subgraph, with cycle detection."""
    order: list[Tensor] = []
    seen = {id(root)}
    on_path = {id(root)}
    stack: list[tuple[Tensor, object]] = [(root, iter(root._parents))]
    while stack:
        node, children = stack[-1]
        advanced = False
        for child in children:
            if not child.requires_grad:
                continue
            key = id(child)
            if key in on_path:
                raise ValueError("cycle detected in the expression graph")
            if key not in seen:
                seen.add(key)
                on_path.add(key)
                stack.append((child, iter(child._parents)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            on_path.discard(id(node))
            order.append(node)
    return order


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

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

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
    lead = a.shape[:-1]

    def backward(g):
        g_rows = g.reshape(-1, g.shape[-1])
        return (g_rows @ b.data.T).reshape(a.shape), rows.T @ g_rows

    return _make((rows @ b.data).reshape(*lead, b.shape[1]), (a, b), backward)


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked products ``a[i] @ b[i]`` over identical leading axes, e.g. [B, H, S, S] @ [B, H, S, d]."""
    if a.ndim < 3 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"batched_matmul expects [..., m, k] @ [..., k, n] operands, got {a.shape} @ {b.shape}")

    def backward(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

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


def _slice(a: Tensor, key) -> Tensor:
    def backward(g):
        full = np.zeros_like(a.data)
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

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(a.data[idx], (a,), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)

    def backward(g):
        if exponent == 0.0:
            return (np.zeros_like(a.data),)
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _make(a.data ** exponent, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        return (g * out_data,)

    return _make(out_data, (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape) / count,)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a.shape) / count,)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


# -- activations ---------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    def backward(g):
        return (g * (a.data > 0.0),)

    return _make(np.maximum(a.data, 0.0), (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    if slope <= 0.0:
        raise ValueError("leaky_relu slope must be positive")

    def backward(g):
        return (g * np.where(a.data > 0.0, 1.0, slope),)

    return _make(np.where(a.data > 0.0, a.data, slope * a.data), (a,), backward)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    out_data = np.where(a.data > 0.0, a.data, alpha * np.expm1(a.data))

    def backward(g):
        return (g * np.where(a.data > 0.0, 1.0, out_data + alpha),)

    return _make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

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
    shifted = scores - scores.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out_data = ex / ex.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return _make(out_data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last axis to zero mean, unit variance, then affine."""
    if eps <= 0.0:
        raise ValueError("layer_norm eps must be positive")
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ValueError(f"layer_norm affine parameters must have shape ({dim},)")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    inv = 1.0 / np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True) + eps)
    normed = centered * inv

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        d_gain = (g * normed).sum(axis=lead) if lead else g * normed
        d_bias = g.sum(axis=lead) if lead else g
        d_normed = g * gain.data
        d_x = inv * (
            d_normed
            - d_normed.mean(axis=-1, keepdims=True)
            - normed * (d_normed * normed).mean(axis=-1, keepdims=True)
        )
        return d_x, d_gain, d_bias

    return _make(normed * gain.data + bias.data, (x, gain, bias), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate`` and rescale survivors.

    Without ``rng`` (evaluation mode) it is the exact identity.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    scale = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backward(g):
        return (g * scale,)

    return _make(x.data * scale, (x,), backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient passes through only strictly inside the interval."""
    inside = (x.data > low) & (x.data < high)

    def backward(g):
        return (g * inside,)

    return _make(np.clip(x.data, low, high), (x,), backward)


# -- segment operations (sparse neighborhoods) ---------------------------


def segment_softmax(scores: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over groups of a 1-D score vector, max-shifted per segment.

    ``segment_ids[k]`` names the group of ``scores[k]``; entries of one group
    sum to 1. Empty segments simply contribute no entries.
    """
    if scores.ndim != 1:
        raise ValueError(f"segment_softmax expects 1-D scores, got {scores.shape}")
    seg = np.asarray(segment_ids, dtype=np.int64)
    highs = np.full(num_segments, -np.inf)
    np.maximum.at(highs, seg, scores.data)
    ex = np.exp(scores.data - highs[seg])
    sums = np.zeros(num_segments)
    np.add.at(sums, seg, ex)
    out_data = ex / sums[seg]

    def backward(g):
        inner = np.zeros(num_segments)
        np.add.at(inner, seg, out_data * g)
        return (out_data * (g - inner[seg]),)

    return _make(out_data, (scores,), backward)


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets."""
    if values.ndim != 2:
        raise ValueError(f"segment_sum expects 2-D values, got {values.shape}")
    seg = np.asarray(segment_ids, dtype=np.int64)

    def backward(g):
        return (g[seg],)

    out_data = np.zeros((num_segments, values.shape[1]))
    np.add.at(out_data, seg, values.data)
    return _make(out_data, (values,), backward)
