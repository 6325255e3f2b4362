"""Dense brute-force twin of the graph attention layer, for the tests."""

import numpy as np

LEAKY_SLOPE = 0.2


def dense_gat(features, graph, params):
    """Every attention score materialized in an n x n table; ELU on each head."""
    x = features
    n = graph.num_nodes
    hoods = [set(nbrs) for nbrs in graph.out_neighbors]
    blocks = []
    for w, a in zip(params.head_proj, params.head_attn):
        z = x @ w.data
        scores = np.full((n, n), -np.inf)
        for i in range(n):
            for j in hoods[i]:
                scores[i, j] = np.concatenate([z[i], z[j]]) @ a.data[:, 0]
        scores = np.where(np.isfinite(scores), np.where(scores > 0, scores, LEAKY_SLOPE * scores), -np.inf)
        shifted = scores - scores.max(axis=1, keepdims=True)
        expd = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
        alpha = expd / expd.sum(axis=1, keepdims=True)
        h = alpha @ z
        blocks.append(np.where(h > 0, h, np.expm1(h)))
    if params.residual_proj is not None:
        blocks.append(x @ params.residual_proj.data)
    return np.concatenate(blocks, axis=1)
