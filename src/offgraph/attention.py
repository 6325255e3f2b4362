"""Scaled dot-product multi-head attention shared by the encoder and fusion layers."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, batched_matmul, dropout, matmul, reshape, softmax, transpose

__all__ = ["multi_head_attention"]


def multi_head_attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    num_heads: int,
    *,
    mask: np.ndarray,
    bq: Tensor | None = None,
    bk: Tensor | None = None,
    bv: Tensor | None = None,
    bo: Tensor | None = None,
    rng: np.random.Generator | None = None,
    attn_dropout: float = 0.0,
) -> Tensor:
    """Self-attention over the rows of each sequence; output has the same shape.

    ``x`` is a padded batch [B, S, d] whose real rows ``mask`` [B, S] marks.
    Padded rows are never attended to; their own outputs are computed but
    meaningless. The packed Q/K/V projections split into heads by a reshape
    to [B, H, S, d_k]; each head scores with 1/sqrt(d_k) scaling and
    softmax-normalizes per query row, and the concatenated head outputs pass
    through the output projection. Dropout at ``attn_dropout`` is applied to
    the attention probabilities when ``rng`` is given.
    """
    batch, length, d_model = x.shape
    if d_model % num_heads:
        raise ValueError(f"width {d_model} not divisible by {num_heads} heads")
    d_k = d_model // num_heads

    def heads(w, b, axes):
        projected = matmul(x, w) if b is None else matmul(x, w) + b
        return transpose(reshape(projected, (batch, length, num_heads, d_k)), axes)

    q = heads(wq, bq, (0, 2, 1, 3))  # [B, H, S, d_k]
    k_t = heads(wk, bk, (0, 2, 3, 1))  # [B, H, d_k, S]
    v = heads(wv, bv, (0, 2, 1, 3))
    scores = batched_matmul(q, k_t) * Tensor(1.0 / math.sqrt(d_k))
    key_mask = np.where(mask, 0.0, -np.inf)[:, None, None, :]  # [B, 1, 1, S]
    probs = dropout(softmax(scores, axis=-1, mask=key_mask), attn_dropout, rng)

    mixed = transpose(batched_matmul(probs, v), (0, 2, 1, 3))  # [B, S, H, d_k]
    out = matmul(reshape(mixed, (batch, length, d_model)), wo)
    if bo is not None:
        out = out + bo
    return out
