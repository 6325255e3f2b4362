"""Graph attention layer against a dense brute-force twin."""

import numpy as np
import pytest

from offgraph.corpus import Corpus
from offgraph.gat import GatParams, attention_coefficients, gat_forward
from offgraph.graph import SocialGraph, build_graph
from offgraph.preprocess import RawTweet
from offgraph.tensor import Tensor

from dense_gat import dense_gat
from gradcheck import assert_gradients_match


def _random_graph(rng, num_nodes):
    """Random directed graph; each node also attends over itself."""
    nodes = [f"n{i}" for i in range(num_nodes)]
    pairs = [(i, j) for i in range(num_nodes) for j in range(num_nodes) if j != i and rng.random() < 0.5]
    return SocialGraph(nodes=nodes, arcs=np.array(pairs, dtype=np.int64).reshape(-1, 2))


def test_self_loop_only_attention_is_one():
    g = SocialGraph(nodes=["a"], arcs=np.zeros((0, 2), dtype=np.int64))
    params = GatParams.init(2, 1, 3, np.random.default_rng(0))
    z = Tensor(np.random.default_rng(1).normal(size=(1, 3)))
    src, dst = g.edge_arrays()
    alpha = attention_coefficients(z, src, dst, params.head_attn[0], 1)
    assert alpha.data.tolist() == [1.0]


def test_equal_scores_split_evenly():
    g = SocialGraph(nodes=["a", "b"], arcs=np.array([[0, 1]]))
    # identical projected rows give identical scores for both neighbors of node 0
    z = Tensor(np.ones((2, 4)))
    attn = Tensor(np.random.default_rng(0).normal(size=(8, 1)), requires_grad=True)
    src, dst = g.edge_arrays()
    alpha = attention_coefficients(z, src, dst, attn, 2)
    assert np.allclose(alpha.data[:2], [0.5, 0.5])


def test_identity_graph_collapses_to_projection():
    # self-loops only: each head's output is ELU of its own projection
    g = SocialGraph(nodes=["a", "b", "c"], arcs=np.zeros((0, 2), dtype=np.int64))
    rng = np.random.default_rng(3)
    params = GatParams.init(4, 2, 4, rng, with_residual=False)
    x = Tensor(rng.normal(size=(3, 4)))
    out = gat_forward(x, g, params)
    z = x.data @ params.head_proj[0].data
    assert np.allclose(out.data[:, :4], np.where(z > 0, z, np.expm1(z)), atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_sparse_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g = _random_graph(rng, n)
    feature_dim = int(rng.integers(1, 4))
    params = GatParams.init(feature_dim, int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
    x = rng.normal(size=(n, feature_dim))
    got = gat_forward(Tensor(x), g, params)
    want = dense_gat(x, g, params)
    assert np.max(np.abs(got.data - want)) < 1e-10


def test_output_width_is_heads_plus_residual():
    rng = np.random.default_rng(0)
    params = GatParams.init(2, 8, 96, rng)
    g = _random_graph(rng, 5)
    out = gat_forward(Tensor(rng.normal(size=(5, 2))), g, params)
    assert out.shape == (5, (8 + 1) * 96)
    assert params.output_dim == 864


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(8)
    g = _random_graph(rng, 30)
    params = GatParams.init(2, 4, 8, rng)
    z = Tensor(rng.normal(size=(30, 8)))
    src, dst = g.edge_arrays()
    alpha = attention_coefficients(z, src, dst, params.head_attn[0], 30)
    sums = np.zeros(30)
    np.add.at(sums, src, alpha.data)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(21)
    n = 6
    g = _random_graph(rng, n)
    params = GatParams.init(3, 2, 4, rng)
    x = rng.normal(size=(n, 3))
    base = gat_forward(Tensor(x), g, params).data

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    # relabel node i as perm[i]
    arcs = perm[g.arcs]
    permuted = SocialGraph(nodes=[g.nodes[i] for i in inv], arcs=arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))])
    permuted_out = gat_forward(Tensor(x[inv]), permuted, params).data
    assert np.max(np.abs(permuted_out[perm] - base)) < 1e-12


def test_full_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    g = _random_graph(rng, 4)
    params = GatParams.init(2, 2, 3, rng)
    x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    tensors = [x] + params.head_proj + params.head_attn + [params.residual_proj]

    def fn():
        return gat_forward(x, g, params).sum()

    assert_gradients_match(fn, tensors, rtol=1e-4)


def test_removed_edge_kills_cross_gradient():
    # node 1 reachable from node 0 only through the 0 -> 1 edge
    with_edge = SocialGraph(nodes=["a", "b"], arcs=np.array([[0, 1]]))
    without = SocialGraph(nodes=["a", "b"], arcs=np.zeros((0, 2), dtype=np.int64))
    rng = np.random.default_rng(2)
    params = GatParams.init(2, 1, 2, rng)
    for g, expect_zero in ((with_edge, False), (without, True)):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = gat_forward(x, g, params)
        out[0:1, :].sum().backward()
        other_row_grad = np.abs(x.grad[1]).sum()
        assert (other_row_grad == 0.0) == expect_zero


def test_attention_dropout_only_in_training():
    corpus = Corpus(
        tweets=[RawTweet("t1", "a", "x", 0), RawTweet("t2", "b", "x", 0)],
        edges=[("a", "b"), ("b", "a")],
    )
    g = build_graph(corpus)
    rng = np.random.default_rng(0)
    params = GatParams.init(2, 2, 4, rng)
    x = Tensor(rng.normal(size=(2, 2)))
    eval_a = gat_forward(x, g, params)
    eval_b = gat_forward(x, g, params)
    assert np.array_equal(eval_a.data, eval_b.data)
    train = gat_forward(x, g, params, rng=np.random.default_rng(1), attn_dropout=0.5)
    assert not np.array_equal(train.data, eval_a.data)
