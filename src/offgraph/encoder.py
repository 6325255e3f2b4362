"""From-scratch transformer text encoder.

Token ids go through learned token and position embeddings, then a stack of
self-attention blocks; the last block's hidden states come back as one
embedding row per token (no pooling here). One sequence runs as [M, d_model]
rows; a batch runs as one padded [B, S, d_model] computation with a validity
mask, so padding never reaches a real token. Blocks are pre-norm, which
trains more stably at small widths than BERT's post-norm layout (Xiong et
al. 2020, arXiv 2002.04745). Trained jointly with the rest of the model,
from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import multi_head_attention
from .corpus import TokenSequence
from .optim import xavier_normal_init
from .tensor import Tensor, dropout, gather_rows, layer_norm, matmul, relu

__all__ = ["EncoderBlockParams", "EncoderParams", "self_attention_block", "encode"]


def _ones(n):
    return Tensor(np.ones(n), requires_grad=True)


def _zeros(n):
    return Tensor(np.zeros(n), requires_grad=True)


@dataclass
class EncoderBlockParams:
    ln1_gain: Tensor
    ln1_bias: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor

    @classmethod
    def init(cls, d_model: int, d_ff: int, rng: np.random.Generator) -> "EncoderBlockParams":
        return cls(
            ln1_gain=_ones(d_model), ln1_bias=_zeros(d_model),
            wq=xavier_normal_init(d_model, d_model, rng),
            wk=xavier_normal_init(d_model, d_model, rng),
            wv=xavier_normal_init(d_model, d_model, rng),
            wo=xavier_normal_init(d_model, d_model, rng),
            bq=_zeros(d_model), bk=_zeros(d_model), bv=_zeros(d_model), bo=_zeros(d_model),
            ln2_gain=_ones(d_model), ln2_bias=_zeros(d_model),
            ffn_w1=xavier_normal_init(d_model, d_ff, rng),
            ffn_b1=_zeros(d_ff),
            ffn_w2=xavier_normal_init(d_ff, d_model, rng),
            ffn_b2=_zeros(d_model),
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": getattr(self, name) for name in (
            "ln1_gain", "ln1_bias", "wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo",
            "ln2_gain", "ln2_bias", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
        )}


@dataclass
class EncoderParams:
    token_table: Tensor  # [vocab, d_model]
    pos_table: Tensor  # [max_len, d_model]
    blocks: list[EncoderBlockParams]
    num_heads: int

    @property
    def d_model(self) -> int:
        return self.token_table.shape[1]

    @property
    def max_len(self) -> int:
        return self.pos_table.shape[0]

    @classmethod
    def init(
        cls,
        vocab_size: int,
        max_len: int,
        d_model: int,
        num_layers: int,
        num_heads: int,
        d_ff: int,
        rng: np.random.Generator,
    ) -> "EncoderParams":
        if d_model % num_heads:
            raise ValueError("d_model must divide evenly across heads")
        return cls(
            token_table=xavier_normal_init(vocab_size, d_model, rng),
            pos_table=xavier_normal_init(max_len, d_model, rng),
            blocks=[EncoderBlockParams.init(d_model, d_ff, rng) for _ in range(num_layers)],
            num_heads=num_heads,
        )

    def named(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out = {f"{prefix}.token_table": self.token_table, f"{prefix}.pos_table": self.pos_table}
        for i, block in enumerate(self.blocks):
            out.update(block.named(f"{prefix}.block{i}"))
        return out


def self_attention_block(
    x: Tensor,
    block: EncoderBlockParams,
    num_heads: int,
    *,
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    attn_dropout: float = 0.0,
    hidden_dropout: float = 0.0,
) -> Tensor:
    """One pre-norm residual attention + feed-forward block over [M, d] or masked [B, S, d] rows."""
    attended = multi_head_attention(
        layer_norm(x, block.ln1_gain, block.ln1_bias), block.wq, block.wk, block.wv, block.wo, num_heads,
        mask=mask, bq=block.bq, bk=block.bk, bv=block.bv, bo=block.bo,
        rng=rng, attn_dropout=attn_dropout,
    )
    x = x + dropout(attended, hidden_dropout, rng)
    hidden = relu(matmul(layer_norm(x, block.ln2_gain, block.ln2_bias), block.ffn_w1) + block.ffn_b1)
    return x + dropout(matmul(hidden, block.ffn_w2) + block.ffn_b2, hidden_dropout, rng)


def encode(
    tokens: TokenSequence | np.ndarray,
    params: EncoderParams,
    *,
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    attn_dropout: float = 0.0,
    hidden_dropout: float = 0.0,
) -> Tensor:
    """Last-layer hidden states, one row per token.

    ``tokens`` is one sequence of ids (giving [M, d_model]) or a padded
    [B, S] id array (giving [B, S, d_model]) whose real tokens ``mask``
    [B, S] marks; every sequence needs at least one. With ``rng``, dropout
    hits the embeddings and each block's outputs at ``hidden_dropout`` and
    the attention probabilities at ``attn_dropout``.
    """
    ids = np.asarray(tokens.token_ids if isinstance(tokens, TokenSequence) else tokens, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.shape[-1] == 0:
        raise ValueError("token ids must be a non-empty 1-D sequence or a [B, S] batch")
    if mask is not None and (mask.shape != ids.shape or not mask.any(axis=-1).all()):
        raise ValueError("the mask must match the ids and keep a token in every sequence")
    if ids.shape[-1] > params.max_len:
        raise ValueError(f"sequence length {ids.shape[-1]} exceeds max_len {params.max_len}")
    if ids.min() < 0 or ids.max() >= params.token_table.shape[0]:
        raise ValueError("token id out of vocabulary range")
    x = gather_rows(params.token_table, ids) + gather_rows(params.pos_table, np.arange(ids.shape[-1]))
    x = dropout(x, hidden_dropout, rng)
    for block in params.blocks:
        x = self_attention_block(
            x, block, params.num_heads, mask=mask,
            rng=rng, attn_dropout=attn_dropout, hidden_dropout=hidden_dropout,
        )
    return x
