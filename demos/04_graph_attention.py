"""Inside the graph attention layer.

A node attends over itself and the users it follows: projected features are
scored pairwise, LeakyReLU-activated, softmax-normalized per neighborhood,
and aggregated per head. Head outputs concatenate, then a projection of the
raw features rides along as a residual.
"""

import numpy as np

from offgraph import Tensor
from offgraph.gat import GatParams, attention_coefficients, gat_forward
from offgraph.graph import SocialGraph
from offgraph.tensor import matmul

# four users: 0 follows 1 and 2; 1 follows 2; 2 follows 3; 3 follows nobody
graph = SocialGraph(
    nodes=["ann", "bob", "cat", "dee"],
    arcs=np.array([[0, 1], [0, 2], [1, 2], [2, 3]]),
)
features = Tensor(np.array([
    [9.0, 0.0],   # ann: busy, never offensive
    [4.0, 3.0],   # bob: mixed history
    [0.5, 5.0],   # cat: mostly offensive
    [1.0, 1e-6],  # dee: unknown, initialized non-offensive
]))

rng = np.random.default_rng(0)
params = GatParams.init(feature_dim=2, num_heads=4, head_dim=8, rng=rng)

print("== attention coefficients, head 0 ==")
src, dst = graph.edge_arrays()
projected = matmul(features, params.head_proj[0])
alpha = attention_coefficients(projected, src, dst, params.head_attn[0], graph.num_nodes)
for s, d, a in zip(src, dst, alpha.data):
    print(f"  {graph.nodes[s]:>3s} -> {graph.nodes[d]:<3s} weight {a:.3f}")
sums = np.zeros(graph.num_nodes)
np.add.at(sums, src, alpha.data)
print("per-neighborhood sums:", np.round(sums, 12))

print("\n== full layer output ==")
out = gat_forward(features, graph, params)
print(f"shape: {out.shape}  (4 heads + residual, 8 dims each)")

print("\n== gradients localize to the neighborhood ==")
feat = Tensor(features.data.copy(), requires_grad=True)
gat_forward(feat, graph, params)[0:1, :].sum().backward()
for i, user in enumerate(graph.nodes):
    touched = np.abs(feat.grad[i]).sum() > 0
    print(f"  d(ann row)/d({user}) nonzero: {touched}")
