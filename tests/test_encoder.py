"""Text encoder: shapes, determinism, block oracle, gradient flow."""

import math

import numpy as np
import pytest

from offgraph.encoder import EncoderBlockParams, EncoderParams, encode, self_attention_block
from offgraph.tensor import Tensor

from gradcheck import assert_gradients_match


@pytest.fixture
def params():
    return EncoderParams.init(
        vocab_size=30, max_len=16, d_model=8, num_layers=2, num_heads=2, d_ff=16,
        rng=np.random.default_rng(0),
    )


def test_output_shape_single_token(params):
    assert encode(np.array([3]), params).shape == (1, 8)


def test_output_shape_matches_length(params):
    for m in (1, 5, 16):
        assert encode(np.arange(m) % 30, params).shape == (m, 8)


def test_eval_mode_deterministic(params):
    ids = np.array([1, 4, 9, 2])
    a = encode(ids, params)
    b = encode(ids, params)
    assert np.array_equal(a.data, b.data)


def test_position_embeddings_break_symmetry(params):
    base = encode(np.array([5, 7, 7]), params).data
    swapped = encode(np.array([7, 5, 7]), params).data
    assert not np.allclose(base, swapped)


def test_id_out_of_range_rejected(params):
    with pytest.raises(ValueError, match="vocabulary"):
        encode(np.array([30]), params)
    with pytest.raises(ValueError, match="max_len"):
        encode(np.zeros(17, dtype=int), params)


def test_block_attention_rows_sum_to_one(attention_probs):
    rng = np.random.default_rng(1)
    block = EncoderBlockParams.init(8, 16, rng)
    self_attention_block(Tensor(rng.normal(size=(5, 8))), block, 2)
    assert len(attention_probs) == 2
    for probs in attention_probs:
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-9


def test_zeroed_output_projection_leaves_ffn_path():
    rng = np.random.default_rng(2)
    block = EncoderBlockParams.init(8, 16, rng)
    block.wo.data[...] = 0.0
    x = rng.normal(size=(4, 8))
    out = self_attention_block(Tensor(x), block, 2).data
    # with the attention path muted, the block is x + FFN(LN(x)) exactly
    from offgraph.tensor import layer_norm, matmul, relu

    h = layer_norm(Tensor(x), block.ln2_gain, block.ln2_bias)
    want = x + (relu(matmul(h, block.ffn_w1) + block.ffn_b1) @ block.ffn_w2 + block.ffn_b2).data
    assert np.allclose(out, want, atol=1e-12)


def test_single_block_matches_hand_rolled_oracle():
    """Dense re-derivation of one pre-norm block on a 2-token, d_model=4 case."""
    rng = np.random.default_rng(3)
    block = EncoderBlockParams.init(4, 8, rng)
    x = rng.normal(size=(2, 4))

    def ln(v, gain, bias, eps=1e-5):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * gain + bias

    h = ln(x, block.ln1_gain.data, block.ln1_bias.data)
    q = h @ block.wq.data + block.bq.data
    k = h @ block.wk.data + block.bk.data
    v = h @ block.wv.data + block.bv.data
    heads = []
    d_k = 2
    for hd in range(2):
        cols = slice(hd * d_k, (hd + 1) * d_k)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(d_k)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        heads.append(probs @ v[:, cols])
    attn = np.concatenate(heads, axis=1) @ block.wo.data + block.bo.data
    mid = x + attn
    h2 = ln(mid, block.ln2_gain.data, block.ln2_bias.data)
    want = mid + (np.maximum(h2 @ block.ffn_w1.data + block.ffn_b1.data, 0.0) @ block.ffn_w2.data + block.ffn_b2.data)

    got = self_attention_block(Tensor(x), block, 2).data
    assert np.max(np.abs(got - want)) < 1e-10


def test_gradient_reaches_every_parameter(params):
    ids = np.array([1, 4, 9, 2, 11])
    out = encode(ids, params)
    out.sum().backward()
    for name, tensor in params.named().items():
        assert tensor.grad is not None, f"no gradient on {name}"
        assert np.any(tensor.grad != 0.0), f"all-zero gradient on {name}"


def test_encoder_gradients_match_finite_differences():
    params = EncoderParams.init(
        vocab_size=7, max_len=6, d_model=4, num_layers=1, num_heads=2, d_ff=6,
        rng=np.random.default_rng(5),
    )
    ids = np.array([1, 3, 5])
    tensors = list(params.named().values())

    def fn():
        return encode(ids, params).sum()

    assert_gradients_match(fn, tensors, rtol=1e-4)


def test_training_mode_applies_dropout(params):
    ids = np.array([1, 2, 3, 4])
    plain = encode(ids, params).data
    dropped = encode(ids, params, rng=np.random.default_rng(0), attn_dropout=0.5, hidden_dropout=0.1).data
    assert not np.allclose(plain, dropped)
