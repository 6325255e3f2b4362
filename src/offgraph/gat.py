"""Single-layer multi-head graph attention over the social graph.

Per head, node features are projected, scored against each neighborhood
member through a LeakyReLU-activated attention vector, normalized by a
per-neighborhood softmax, and aggregated. Head outputs are concatenated and
a projection of the original node features is appended as a residual, so a
graph with K heads emits (K + 1) * head_dim values per node.

The heads run as one packed pass: one product projects every head and the
residual, and one [E, K] score array goes through one segment softmax.

Evaluation walks the flat edge list (neighborhoods never materialize a dense
n x n matrix); the tests hold a dense brute-force twin to compare against.
With one layer a node's row reads only its own neighborhood, so a pass for a
few users runs on their part of the edge list alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SocialGraph
from .optim import xavier_normal_init
from .tensor import (
    Tensor,
    add,
    concat,
    dropout,
    elu,
    gather_rows,
    leaky_relu,
    matmul,
    mul,
    reduce_sum,
    reshape,
    segment_softmax,
    segment_sum,
)

__all__ = ["GatParams", "attention_coefficients", "gat_forward"]


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
        rng: np.random.Generator | None,
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
    """Normalized attention weights per edge, summing to 1 per source node.

    One head: ``projected`` [N, d] and ``attn_vec`` [2d, 1] give [E]. K heads:
    ``projected`` [N, K, d] and the stacked vectors [2d, K] give [E, K], whose
    column k equals head k's one-head weights exactly.

    The score a . [z_src || z_dst] splits into a per-node term for each end.
    Each term is a row of elementwise products, summed: a BLAS product would
    round a row differently by where it sits among the rows multiplied.
    """
    halves = reshape(attn_vec.T, (-1, 2, projected.shape[-1]))  # [K, 2, d]
    src_term, dst_term = (reduce_sum(mul(projected, halves[:, k]), axis=-1) for k in (0, 1))
    scores = add(gather_rows(src_term, edge_src), gather_rows(dst_term, edge_dst))
    return segment_softmax(leaky_relu(scores), edge_src, num_nodes)


def gat_forward(
    node_features: Tensor,
    graph: SocialGraph,
    params: GatParams,
    *,
    users: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    attn_dropout: float = 0.0,
    symmetric: bool = False,
) -> Tensor:
    """Embeddings [len(users), (K + 1) * head_dim] (K * head_dim without residual).

    Row i embeds node ``users[i]``; ids may repeat and come in any order.
    ``users=None`` means every node, in node order. One layer reads only the
    users' own attention edges, so the pass runs on ``graph.neighbourhood``
    of the distinct users and each row equals the full pass's row exactly.

    With ``rng``, the attention coefficients get dropout at ``attn_dropout``.
    ``tensor.dropout`` draws the mask as one [K, E] draw over every edge of
    the graph (``whole``) and reads it at the local edges (``at``), so the
    random stream is the full pass's.
    """
    if node_features.shape[0] != graph.num_nodes:
        raise ValueError("feature rows must match graph nodes")
    wanted = np.arange(graph.num_nodes) if users is None else np.asarray(users, dtype=np.int64)
    nodes, edge_src, edge_dst, edges = graph.neighbourhood(np.unique(wanted), symmetric=symmetric)
    heads, dim, n, num_edges = params.num_heads, params.head_dim, len(nodes), len(edges)
    projections = params.head_proj + ([] if params.residual_proj is None else [params.residual_proj])
    # Every node is projected, in one product of the full pass's shape: numpy hands a
    # one-row product to another BLAS routine, which rounds differently.
    projected = gather_rows(matmul(node_features, concat(projections, axis=1)), nodes)
    rows = reshape(projected, (n, len(projections), dim))  # the heads' rows, then the residual's
    z = rows[:, :heads]
    alpha = attention_coefficients(z, edge_src, edge_dst, concat(params.head_attn, axis=1), n)
    # alpha's [e, k] reads the draw's [k, edges[e]]
    whole, at = (heads, graph.edge_count(symmetric)), (np.arange(heads), edges[:, None])
    alpha = dropout(alpha, attn_dropout, rng, whole=whole, at=at)
    weighted = mul(reshape(alpha, (num_edges, heads, 1)), gather_rows(z, edge_dst))
    mixed = reshape(segment_sum(reshape(weighted, (num_edges, heads * dim)), edge_src, n), (n, heads, dim))
    embedded = reshape(concat([elu(mixed), rows[:, heads:]], axis=1), (n, params.output_dim))
    return gather_rows(embedded, np.searchsorted(nodes, wanted))
