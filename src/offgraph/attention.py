"""Scaled dot-product multi-head attention shared by the encoder and fusion layers.

Every block packs its query, key and value projections into one ``wqkv``
[d, 3d] (and optionally one ``bqkv`` [3d]): columns [0, d) are Q, [d, 2d) K
and [2d, 3d) V, and within each, head h owns columns h*d_k .. (h+1)*d_k.
``qkv_init`` builds it; ``fold_separate_qkv`` packs older checkpoints' ``wq``/``wk``/``wv``.
"""

from __future__ import annotations

import math

import numpy as np

from .optim import xavier_normal_init
from .tensor import Tensor, batched_matmul, dropout, matmul, reshape, softmax, transpose

__all__ = ["qkv_init", "fold_separate_qkv", "multi_head_attention"]


def qkv_init(d_model: int, rng: np.random.Generator | None) -> Tensor:
    """Trainable packed [d, 3d] projection: three [d, d] Xavier draws from ``rng`` in Q, K, V order."""
    draws = [xavier_normal_init(d_model, d_model, rng).data for _ in range(3)]
    return Tensor(np.concatenate(draws, axis=1), requires_grad=True)


def fold_separate_qkv(arrays: dict[str, np.ndarray]) -> None:
    """Fold each complete ``<p>.wq/.wk/.wv`` (or ``<p>.bq/.bk/.bv``) triple of
    ``arrays`` into one packed ``<p>.wqkv`` (``<p>.bqkv``), in place. A partial
    triple keeps its names, so the model rejects it."""
    for name in [n for n in arrays if n.endswith((".wq", ".bq"))]:
        stem = name[:-1]
        parts = [stem + part for part in "qkv"]
        if all(part in arrays for part in parts) and stem + "qkv" not in arrays:
            arrays[stem + "qkv"] = np.concatenate([arrays.pop(part) for part in parts], axis=-1)


def multi_head_attention(
    x: Tensor,
    wqkv: Tensor,
    wo: Tensor,
    num_heads: int,
    *,
    mask: np.ndarray,
    bqkv: Tensor | None = None,
    bo: Tensor | None = None,
    rng: np.random.Generator | None = None,
    attn_dropout: float = 0.0,
) -> Tensor:
    """Self-attention over the rows of each sequence; output has the same shape.

    ``x`` is a padded batch [B, S, d] whose real rows ``mask`` [B, S] marks.
    Padded rows are never attended to; their own outputs are computed but
    meaningless. One product with the packed projection gives Q, K and V,
    split into heads by a reshape to [3, B, H, S, d_k]; each head scores with
    1/sqrt(d_k) scaling and softmax-normalizes per query row, and the
    concatenated head outputs pass through the output projection. Dropout at
    ``attn_dropout`` is applied to the attention probabilities when ``rng``
    is given.
    """
    batch, length, d_model = x.shape
    if d_model % num_heads:
        raise ValueError(f"width {d_model} not divisible by {num_heads} heads")
    d_k = d_model // num_heads

    packed = matmul(x, wqkv) if bqkv is None else matmul(x, wqkv) + bqkv
    qkv = transpose(reshape(packed, (batch, length, 3, num_heads, d_k)), (2, 0, 3, 1, 4))  # [3, B, H, S, d_k]
    q, k, v = qkv[0], qkv[1], qkv[2]
    scores = batched_matmul(q, transpose(k, (0, 1, 3, 2))) * Tensor(1.0 / math.sqrt(d_k))
    key_mask = np.where(mask, 0.0, -np.inf)[:, None, None, :]  # [B, 1, 1, S]
    probs = dropout(softmax(scores, axis=-1, mask=key_mask), attn_dropout, rng)

    mixed = transpose(batched_matmul(probs, v), (0, 2, 1, 3))  # [B, S, H, d_k]
    out = matmul(reshape(mixed, (batch, length, d_model)), wo)
    if bo is not None:
        out = out + bo
    return out
