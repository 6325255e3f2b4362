"""Text encoder: shapes, determinism, block oracle, gradient flow."""

import math

import numpy as np
import pytest

from offgraph.attention import qkv_init
from offgraph.encoder import EncoderBlockParams, EncoderParams, encode, self_attention_block
from offgraph.optim import xavier_normal_init
from offgraph.tensor import Tensor

from gradcheck import assert_gradients_match


def _encode(ids, params, **kw):
    """Encode one unpadded sequence as a batch of one."""
    ids = np.asarray(ids)[None, :]
    return encode(ids, params, mask=np.ones(ids.shape, dtype=bool), **kw)


@pytest.fixture
def params():
    return EncoderParams.init(
        vocab_size=30, max_len=16, d_model=8, num_layers=2, num_heads=2, d_ff=16,
        rng=np.random.default_rng(0),
    )


def test_output_shape_single_token(params):
    assert _encode(np.array([3]), params).shape == (1, 1, 8)


def test_output_shape_matches_length(params):
    for m in (1, 5, 16):
        assert _encode(np.arange(m) % 30, params).shape == (1, m, 8)


def test_eval_mode_deterministic(params):
    ids = np.array([1, 4, 9, 2])
    a = _encode(ids, params)
    b = _encode(ids, params)
    assert np.array_equal(a.data, b.data)


def test_position_embeddings_break_symmetry(params):
    base = _encode(np.array([5, 7, 7]), params).data
    swapped = _encode(np.array([7, 5, 7]), params).data
    assert not np.allclose(base, swapped)


def test_id_out_of_range_rejected(params):
    with pytest.raises(ValueError, match="vocabulary"):
        _encode(np.array([30]), params)
    with pytest.raises(ValueError, match="max_len"):
        _encode(np.zeros(17, dtype=int), params)


def test_encode_takes_only_a_masked_batch(params):
    with pytest.raises(ValueError, match=r"\[B, S\] batch"):
        encode(np.array([1, 2]), params, mask=np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="keep a token"):
        encode(np.array([[1, 2], [3, 0]]), params, mask=np.array([[True, True], [False, False]]))


def test_block_attention_rows_sum_to_one(attention_probs):
    rng = np.random.default_rng(1)
    block = EncoderBlockParams.init(8, 16, rng)
    self_attention_block(Tensor(rng.normal(size=(1, 5, 8))), block, 2, mask=np.ones((1, 5), dtype=bool))
    assert len(attention_probs) == 2
    for probs in attention_probs:
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-9


def test_zeroed_output_projection_leaves_ffn_path():
    rng = np.random.default_rng(2)
    block = EncoderBlockParams.init(8, 16, rng)
    block.wo.data[...] = 0.0
    x = rng.normal(size=(4, 8))
    out = self_attention_block(Tensor(x[None]), block, 2, mask=np.ones((1, 4), dtype=bool)).data[0]
    # with the attention path muted, the block is x + FFN(LN(x)) exactly
    from offgraph.tensor import layer_norm, matmul, relu

    h = layer_norm(Tensor(x), block.ln2_gain, block.ln2_bias)
    want = x + (relu(matmul(h, block.ffn_w1) + block.ffn_b1) @ block.ffn_w2 + block.ffn_b2).data
    assert np.allclose(out, want, atol=1e-12)


def test_qkv_init_is_three_xavier_draws_in_order():
    packed_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    packed = qkv_init(6, packed_rng)
    draws = [xavier_normal_init(6, 6, rng).data for _ in range(3)]
    assert packed.shape == (6, 18) and packed.requires_grad
    assert np.array_equal(packed.data, np.concatenate(draws, axis=1))
    assert packed_rng.random() == rng.random()  # and leaves the stream where the three draws do


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
    w, b = block.wqkv.data, block.bqkv.data  # Q | K | V column blocks, each [4, 4]
    q = h @ w[:, 0:4] + b[0:4]
    k = h @ w[:, 4:8] + b[4:8]
    v = h @ w[:, 8:12] + b[8:12]
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

    got = self_attention_block(Tensor(x[None]), block, 2, mask=np.ones((1, 2), dtype=bool)).data[0]
    assert np.max(np.abs(got - want)) < 1e-10


def test_gradient_reaches_every_parameter(params):
    ids = np.array([1, 4, 9, 2, 11])
    out = _encode(ids, params)
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
        return _encode(ids, params).sum()

    assert_gradients_match(fn, tensors, rtol=1e-4)


def test_training_mode_applies_dropout(params):
    ids = np.array([1, 2, 3, 4])
    plain = _encode(ids, params).data
    dropped = _encode(ids, params, rng=np.random.default_rng(0), attn_dropout=0.5, hidden_dropout=0.1).data
    assert not np.allclose(plain, dropped)
