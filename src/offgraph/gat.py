"""Single-layer multi-head graph attention over the social graph.

Per head, node features are projected, scored against each neighborhood
member through a LeakyReLU-activated attention vector, normalized by a
per-neighborhood softmax, and aggregated. Head outputs are concatenated and
a projection of the original node features is appended as a residual, so a
graph with K heads emits (K + 1) * head_dim values per node.

Evaluation walks the flat edge list (neighborhoods never materialize a dense
n x n matrix); the tests hold a dense brute-force twin to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SocialGraph
from .optim import xavier_normal_init
from .tensor import (
    Tensor,
    concat,
    dropout,
    elu,
    gather_rows,
    leaky_relu,
    matmul,
    mul,
    reshape,
    segment_softmax,
    segment_sum,
)

__all__ = ["GatParams", "attention_coefficients", "gat_forward"]

LEAKY_SLOPE = 0.2


@dataclass
class GatParams:
    head_proj: list[Tensor]  # per head, [feature_dim, head_dim]
    head_attn: list[Tensor]  # per head, [2 * head_dim, 1]
    residual_proj: Tensor | None  # [feature_dim, head_dim]

    @property
    def num_heads(self) -> int:
        return len(self.head_proj)

    @property
    def head_dim(self) -> int:
        return self.head_proj[0].shape[1]

    @property
    def output_dim(self) -> int:
        return (self.num_heads + (self.residual_proj is not None)) * self.head_dim

    @classmethod
    def init(
        cls,
        feature_dim: int,
        num_heads: int,
        head_dim: int,
        rng: np.random.Generator,
        with_residual: bool = True,
    ) -> "GatParams":
        if num_heads < 1:
            raise ValueError("need at least one attention head")
        return cls(
            head_proj=[xavier_normal_init(feature_dim, head_dim, rng) for _ in range(num_heads)],
            head_attn=[xavier_normal_init(2 * head_dim, 1, rng) for _ in range(num_heads)],
            residual_proj=xavier_normal_init(feature_dim, head_dim, rng) if with_residual else None,
        )

    def named(self, prefix: str = "gat") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for k, (w, a) in enumerate(zip(self.head_proj, self.head_attn)):
            out[f"{prefix}.head{k}.proj"] = w
            out[f"{prefix}.head{k}.attn"] = a
        if self.residual_proj is not None:
            out[f"{prefix}.residual.proj"] = self.residual_proj
        return out


def attention_coefficients(
    projected: Tensor,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    attn_vec: Tensor,
    num_nodes: int,
) -> Tensor:
    """Normalized attention weights, one per edge, summing to 1 per source node."""
    z_src = gather_rows(projected, edge_src)
    z_dst = gather_rows(projected, edge_dst)
    scores = leaky_relu(matmul(concat([z_src, z_dst], axis=1), attn_vec), LEAKY_SLOPE)
    return segment_softmax(reshape(scores, (len(edge_src),)), edge_src, num_nodes)


def gat_forward(
    node_features: Tensor,
    graph: SocialGraph,
    params: GatParams,
    *,
    rng: np.random.Generator | None = None,
    attn_dropout: float = 0.0,
    symmetric: bool = False,
) -> Tensor:
    """Per-node embeddings [n, (K + 1) * head_dim] (K * head_dim without residual).

    With ``rng``, each head's attention coefficients get dropout at ``attn_dropout``.
    """
    if node_features.shape[0] != graph.num_nodes:
        raise ValueError("feature rows must match graph nodes")
    edge_src, edge_dst = graph.edge_arrays(symmetric=symmetric)
    num_edges = len(edge_src)
    parts = []
    for proj, attn in zip(params.head_proj, params.head_attn):
        z = matmul(node_features, proj)
        alpha = attention_coefficients(z, edge_src, edge_dst, attn, graph.num_nodes)
        alpha = dropout(alpha, attn_dropout, rng)
        weighted = mul(reshape(alpha, (num_edges, 1)), gather_rows(z, edge_dst))
        parts.append(elu(segment_sum(weighted, edge_src, graph.num_nodes)))
    if params.residual_proj is not None:
        parts.append(matmul(node_features, params.residual_proj))
    return concat(parts, axis=1)
