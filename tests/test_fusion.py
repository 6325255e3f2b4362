"""Fusion layer: assembly, position encoding, attention, classification head."""

import math

import numpy as np
import pytest

from offgraph.fusion import (
    FusionParams,
    add_position_encoding,
    assemble,
    classify,
    fuse_attention,
    sinusoidal_encoding,
)
from offgraph.tensor import Tensor, layer_norm, matmul

from gradcheck import assert_gradients_match


@pytest.fixture
def params():
    return FusionParams.init(d_model=8, d_ff=16, rng=np.random.default_rng(0), num_heads=2, gat_head_dim=4)


def _author(rng, rows=3, head_dim=4):
    return Tensor(rng.normal(size=(1, rows, head_dim)))


def _all_rows(x):
    """The mask of a batch without padding."""
    return np.ones(x.shape[:2], dtype=bool)


def _fused_probability(tokens, author, params):
    """One tweet [1, M, d] with its author rows through position encoding, attention and the head."""
    x = add_position_encoding(assemble(tokens, author, params), np.array([tokens.shape[1]]))
    return classify(fuse_attention(x, params, mask=_all_rows(x)), params)


def test_assemble_length_tokens_plus_heads_plus_residual(params):
    rng = np.random.default_rng(1)
    tokens = Tensor(rng.normal(size=(1, 5, 8)))
    fused = assemble(tokens, _author(rng, rows=9), params)
    assert fused.shape == (1, 5 + 8 + 1, 8)
    assert np.array_equal(fused.data[:, :5], tokens.data)  # the 5 token slots come first


def test_assemble_same_author_rows_for_two_tweets(params):
    rng = np.random.default_rng(2)
    author = _author(rng)
    a = assemble(Tensor(rng.normal(size=(1, 4, 8))), author, params)
    b = assemble(Tensor(rng.normal(size=(1, 2, 8))), author, params)
    assert np.array_equal(a.data[:, 4:], b.data[:, 2:])


def test_assemble_tokens_only_for_no_gat_path():
    params = FusionParams.init(d_model=8, d_ff=16, rng=np.random.default_rng(0), num_heads=2)
    tokens = Tensor(np.random.default_rng(3).normal(size=(1, 6, 8)))
    fused = assemble(tokens, None, params)
    assert fused.shape == (1, 6, 8)
    assert np.array_equal(fused.data, tokens.data)  # all 6 rows are token slots
    with pytest.raises(ValueError):
        assemble(None, Tensor(np.zeros((1, 3, 4))), params)


def test_assemble_requires_something(params):
    with pytest.raises(ValueError):
        assemble(None, None, params)


# -- position encoding ------------------------------------------------------------


def test_sinusoid_position_zero_alternates():
    row = sinusoidal_encoding([0], 8)[0]
    assert np.array_equal(row, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_sinusoid_hand_value():
    assert abs(sinusoidal_encoding([3], 64)[0, 0] - math.sin(3.0)) < 1e-12
    assert abs(math.sin(3.0) - 0.14112) < 1e-5


def test_user_rows_share_one_encoding(params):
    rng = np.random.default_rng(4)
    fused = assemble(Tensor(np.zeros((1, 5, 8))), Tensor(np.zeros((1, 9, 4))), params)
    with_pe = add_position_encoding(fused, np.array([5]))
    user_rows = with_pe.data[0, 5:]
    assert np.all(user_rows == user_rows[0])
    assert np.array_equal(user_rows[0] - fused.data[0, 5], sinusoidal_encoding([5], 8)[0])


def test_token_rows_get_distinct_encodings(params):
    fused = assemble(Tensor(np.zeros((1, 4, 8))), Tensor(np.zeros((1, 9, 4))), params)
    with_pe = add_position_encoding(fused, np.array([4])).data[0]
    assert not np.array_equal(with_pe[0], with_pe[1])


# Token counts 0 and T-1 (one user row), a batch with no user rows (T = S, so
# the longest count is T), a wide batch, and an odd width.
@pytest.mark.parametrize("dim", [8, 7, 64])
@pytest.mark.parametrize("counts, rows", [([0, 3, 6], 7), ([6, 1, 0, 2], 6), ([0, 13, 31, 20], 40)])
def test_position_table_equals_the_per_row_encoding(counts, rows, dim):
    counts = np.array(counts)
    x = Tensor(np.random.default_rng(6).normal(size=(len(counts), rows, dim)))
    positions = np.minimum(np.arange(rows), counts[:, None])
    per_row = sinusoidal_encoding(positions.reshape(-1), dim).reshape(positions.shape + (dim,))
    assert np.array_equal(add_position_encoding(x, counts).data, x.data + per_row)


# -- fused attention ----------------------------------------------------------------


def test_single_row_attention_is_identity_weight(params, attention_probs):
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(1, 8)))
    out = fuse_attention(Tensor(x.data[None]), params, mask=np.ones((1, 1), dtype=bool))
    assert len(attention_probs) == 2  # two heads, one call
    for probs in attention_probs:
        assert probs.tolist() == [[1.0]]
    normed = layer_norm(x, params.ln1_gain, params.ln1_bias)
    heads = []
    for h in range(2):
        cols = slice(h * 4, (h + 1) * 4)
        heads.append(matmul(normed, params.wqkv[:, 16:24]).data[:, cols])  # the V block
    attended = np.concatenate(heads, axis=1) @ params.wo.data
    want = layer_norm(x + Tensor(attended), params.ln2_gain, params.ln2_bias).data
    assert np.allclose(out.data[0], want, atol=1e-12)


def test_attention_probability_rows_sum_to_one(params, attention_probs):
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(1, 7, 8)))
    fuse_attention(x, params, mask=_all_rows(x))
    assert len(attention_probs) == 2  # two heads, one call
    for probs in attention_probs:
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-9


def test_three_row_single_head_matches_dense_oracle():
    params = FusionParams.init(d_model=4, d_ff=8, rng=np.random.default_rng(7), num_heads=1)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))

    def ln(v, gain, bias, eps=1e-5):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * gain + bias

    h = ln(x, params.ln1_gain.data, params.ln1_bias.data)
    w = params.wqkv.data  # Q | K | V column blocks, each [4, 4]
    q, k, v = h @ w[:, 0:4], h @ w[:, 4:8], h @ w[:, 8:12]
    scores = q @ k.T / 2.0
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    want = ln(x + (probs @ v) @ params.wo.data, params.ln2_gain.data, params.ln2_bias.data)

    got = fuse_attention(Tensor(x[None]), params, mask=np.ones((1, 3), dtype=bool)).data[0]
    assert np.max(np.abs(got - want)) < 1e-10


def test_user_head_rows_exchangeable_when_equal(params):
    rng = np.random.default_rng(9)
    tokens = Tensor(rng.normal(size=(1, 3, 8)))
    row = rng.normal(size=4)
    author_a = Tensor(np.vstack([row, row, rng.normal(size=4)])[None])
    author_b = Tensor(author_a.data[:, [1, 0, 2]])  # swap the two equal head rows

    def run(author):
        return _fused_probability(tokens, author, params).item()

    assert run(author_a) == run(author_b)
    # but token order matters because of the position encodings
    swapped = Tensor(tokens.data[:, [1, 0, 2]])
    swapped_out = _fused_probability(swapped, author_a, params).item()
    base = _fused_probability(tokens, author_a, params).item()
    assert swapped_out != base


# -- classification head ---------------------------------------------------------------


def test_zero_logit_gives_half(params):
    params.clf_w.data[...] = 0.0
    params.clf_b.data[...] = 0.0
    out = classify(Tensor(np.random.default_rng(10).normal(size=(1, 4, 8))), params)
    assert out.data.tolist() == [0.5]


def test_all_negative_rows_hit_relu_dead_zone(params):
    x = Tensor(-np.ones((1, 3, 8)))
    out = matmul(Tensor(np.maximum(x.data, 0.0)), params.ffn_w) + params.ffn_b
    assert np.array_equal(out.data, np.tile(params.ffn_b.data, (1, 3, 1)))
    a = classify(x, params).item()
    b = classify(Tensor(-2 * np.ones((1, 3, 8))), params).item()
    assert a == b


def test_probabilities_in_open_interval(params):
    rng = np.random.default_rng(11)
    for _ in range(10):
        tokens = Tensor(rng.normal(size=(1, rng.integers(1, 6), 8)))
        p = _fused_probability(tokens, _author(rng), params).item()
        assert 0.0 < p < 1.0
    big = classify(Tensor(rng.normal(size=(1, 4, 8)) * 1e3), params).item()
    assert np.isfinite(big)


def test_cls_pooling_flag(params):
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(1, 5, 8)))
    mean_pool = classify(x, params, pooling="mean").item()
    cls_pool = classify(x, params, pooling="cls").item()
    assert mean_pool != cls_pool
    with pytest.raises(ValueError):
        classify(x, params, pooling="max")


def test_fusion_gradients_match_finite_differences(params):
    rng = np.random.default_rng(13)
    tokens = Tensor(rng.normal(size=(1, 3, 8)), requires_grad=True)
    author = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    tensors = [tokens, author] + list(params.named().values())

    def fn():
        return _fused_probability(tokens, author, params).sum()

    assert_gradients_match(fn, tensors, rtol=1e-4)
