"""Fusion of token embeddings with the author's graph embedding, plus the
classification head.

Per tweet, the fused sequence stacks the M token rows, the author's per-head
graph attention rows (projected into model width by a shared adapter), and
the author's residual row (its own adapter). Sinusoidal position encodings
cover the token rows by position; every user row shares the single encoding
for position M, so the user rows stay exchangeable.

The fused sequence is layer-normalized, passed through multi-head attention
with a residual link and a second layer normalization, then a row-wise
ReLU-first feed-forward layer; the rows are mean-pooled and squashed through
a logistic unit into P(offensive).

Every function takes one tweet's rows [T, d] or a batch [B, T, d]. A batch
lays each tweet out as [its tokens, padded to the batch's S slots | its user
rows], with a [B, T] mask marking the real rows; per-tweet token counts
place the user rows' shared position, and pooling averages real rows only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import multi_head_attention
from .optim import xavier_normal_init
from .tensor import (
    Tensor,
    concat,
    dropout,
    layer_norm,
    matmul,
    relu,
    reshape,
    sigmoid,
)

__all__ = [
    "FusionParams",
    "sinusoidal_encoding",
    "assemble",
    "add_position_encoding",
    "fuse_attention",
    "pool_rows",
    "classify",
]

POOLINGS = ("mean", "cls")


@dataclass
class FusionParams:
    head_adapter: Tensor | None  # [gat_head_dim, d_model], shared by all head rows
    residual_adapter: Tensor | None  # [gat_head_dim, d_model]
    ln1_gain: Tensor | None
    ln1_bias: Tensor | None
    wq: Tensor | None
    wk: Tensor | None
    wv: Tensor | None
    wo: Tensor | None
    ln2_gain: Tensor | None
    ln2_bias: Tensor | None
    ffn_w: Tensor
    ffn_b: Tensor
    clf_w: Tensor
    clf_b: Tensor
    num_heads: int = 4

    @classmethod
    def init(
        cls,
        d_model: int,
        d_ff: int,
        rng: np.random.Generator,
        num_heads: int = 4,
        gat_head_dim: int | None = None,
        with_residual_row: bool = True,
        with_attention: bool = True,
        ffn_in: int | None = None,
    ) -> "FusionParams":
        def ones(n):
            return Tensor(np.ones(n), requires_grad=True)

        def zeros(n):
            return Tensor(np.zeros(n), requires_grad=True)

        has_gat = gat_head_dim is not None
        return cls(
            head_adapter=xavier_normal_init(gat_head_dim, d_model, rng) if has_gat else None,
            residual_adapter=(
                xavier_normal_init(gat_head_dim, d_model, rng) if has_gat and with_residual_row else None
            ),
            ln1_gain=ones(d_model) if with_attention else None,
            ln1_bias=zeros(d_model) if with_attention else None,
            wq=xavier_normal_init(d_model, d_model, rng) if with_attention else None,
            wk=xavier_normal_init(d_model, d_model, rng) if with_attention else None,
            wv=xavier_normal_init(d_model, d_model, rng) if with_attention else None,
            wo=xavier_normal_init(d_model, d_model, rng) if with_attention else None,
            ln2_gain=ones(d_model) if with_attention else None,
            ln2_bias=zeros(d_model) if with_attention else None,
            ffn_w=xavier_normal_init(ffn_in or d_model, d_ff, rng),
            ffn_b=zeros(d_ff),
            clf_w=xavier_normal_init(d_ff, 1, rng),
            clf_b=zeros(1),
            num_heads=num_heads,
        )

    def named(self, prefix: str = "fusion") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name in (
            "head_adapter", "residual_adapter", "ln1_gain", "ln1_bias",
            "wq", "wk", "wv", "wo", "ln2_gain", "ln2_bias",
            "ffn_w", "ffn_b", "clf_w", "clf_b",
        ):
            tensor = getattr(self, name)
            if tensor is not None:
                out[f"{prefix}.{name}"] = tensor
        return out


def sinusoidal_encoding(positions, dim: int) -> np.ndarray:
    """Interleaved sin/cos position table: row p is (sin, cos, sin, cos, ...)."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    pair = np.arange(0, dim, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, pair / dim)
    out = np.zeros((len(pos), dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles[:, : out[:, 1::2].shape[1]])
    return out


def assemble(
    token_embeddings: Tensor | None,
    author_rows: Tensor | None,
    params: FusionParams,
) -> Tensor:
    """Stack token rows, adapted head rows, and the adapted residual row.

    ``author_rows`` is the author's graph embedding reshaped to one row per
    head (the residual row last when present), [R, head_dim] or
    [B, R, head_dim]. The token rows (M, or the padded S of a batch) come
    first. Either side may be absent (the corresponding ablations drop it),
    but not both.
    """
    parts: list[Tensor] = []
    if token_embeddings is not None:
        parts.append(token_embeddings)
    if author_rows is not None:
        if params.head_adapter is None:
            raise ValueError("fusion has no adapters but received author rows")
        if params.residual_adapter is not None:
            rows = author_rows.shape[-2]
            parts.append(matmul(author_rows[..., : rows - 1, :], params.head_adapter))
            parts.append(matmul(author_rows[..., rows - 1 :, :], params.residual_adapter))
        else:
            parts.append(matmul(author_rows, params.head_adapter))
    if not parts:
        raise ValueError("nothing to fuse: both token and user rows are absent")
    return concat(parts, axis=-2)


def add_position_encoding(x: Tensor, num_tokens) -> Tensor:
    """Tokens get positions 0..M-1; every user row shares the encoding for M.

    ``num_tokens`` is M, shared by every sequence, or the per-tweet counts
    [B] of a batch [B, T, d]. Row j sits at position min(j, M), which also
    covers a batch's padded token slots; those are masked, so their
    position is moot.
    """
    positions = np.minimum(np.arange(x.shape[-2]), np.asarray(num_tokens)[..., None])
    table = sinusoidal_encoding(positions.reshape(-1), x.shape[-1])
    return x + Tensor(table.reshape(positions.shape + (x.shape[-1],)))


def fuse_attention(
    x: Tensor,
    params: FusionParams,
    *,
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    attn_dropout: float = 0.0,
) -> Tensor:
    """Layer norm, multi-head attention, residual link, second layer norm."""
    normed = layer_norm(x, params.ln1_gain, params.ln1_bias)
    attended = multi_head_attention(
        normed, params.wq, params.wk, params.wv, params.wo, params.num_heads, mask=mask,
        rng=rng, attn_dropout=attn_dropout,
    )
    return layer_norm(x + attended, params.ln2_gain, params.ln2_bias)


def pool_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Mean over the row axis, keeping it: [T, d] -> [1, d], [B, T, d] -> [B, 1, d].

    With ``mask`` [B, T] only the rows it keeps count.
    """
    if mask is None:
        return x.mean(axis=-2, keepdims=True)
    weights = mask / mask.sum(axis=-1, keepdims=True)
    return (x * Tensor(weights[..., None])).sum(axis=-2, keepdims=True)


def classify(
    x: Tensor,
    params: FusionParams,
    *,
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    hidden_dropout: float = 0.0,
    pooling: str = "mean",
) -> Tensor:
    """Row-wise ReLU-then-linear feed-forward, pooling, logistic probability.

    One tweet [T, d] gives shape [1]; a batch [B, T, d] gives [B]. Mean
    pooling averages the rows ``mask`` [B, T] keeps; ``cls`` takes row 0.
    """
    hidden = matmul(relu(x), params.ffn_w) + params.ffn_b
    hidden = dropout(hidden, hidden_dropout, rng)
    if pooling == "mean":
        pooled = pool_rows(hidden, mask)
    elif pooling == "cls":
        pooled = hidden[..., 0:1, :]
    else:
        raise ValueError(f"unknown pooling {pooling!r}; expected one of {POOLINGS}")
    logit = matmul(pooled, params.clf_w) + params.clf_b
    return reshape(sigmoid(logit), x.shape[:-2] or (1,))
