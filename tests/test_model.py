"""Composed model: ablation wiring, parameter groups, predictions."""

import numpy as np
import pytest

from offgraph import attention, encoder, fusion, gat
from offgraph.corpus import TokenSequence, build_vocab, encode, split_corpus
from offgraph.encoder import encode as encode_tokens
from offgraph.fusion import add_position_encoding, assemble, classify, fuse_attention
from offgraph.graph import build_graph, with_node_features
from offgraph.model import ABLATIONS, DetectionModel
from offgraph.synthetic import generate_corpus
from offgraph.tensor import concat, dropout, gather_rows, no_grad, reshape
from offgraph.training import TrainConfig


@pytest.fixture(scope="module")
def setting():
    corpus = generate_corpus(120, 20, seed=4)
    split = split_corpus(corpus, 0.7, np.random.default_rng(0))
    vocab = build_vocab(split.train)
    graph = with_node_features(build_graph(corpus), split.train, "soft", "nonoff")
    seqs = [encode(t, vocab, 24) for t in split.test[:6]]
    return corpus, vocab, graph, seqs


def _config(**kw):
    base = dict(
        gat_hidden=16, gat_heads=4, d_model=16, encoder_layers=1, encoder_heads=2,
        d_ff=24, max_len=24, fusion_heads=2,
    )
    base.update(kw)
    return TrainConfig(**base).validate()


def _model(setting, **kw):
    _, vocab, graph, _ = setting
    cfg = _config(**kw)
    return DetectionModel(cfg, len(vocab), 2, np.random.default_rng(0)), graph


def test_unknown_ablation_rejected(setting):
    _, vocab, _, _ = setting
    with pytest.raises(ValueError, match="ablation"):
        DetectionModel(_config(ablation="nope"), len(vocab), 2, np.random.default_rng(0))


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_validate_rejects_exactly_the_head_counts_the_model_rejects(ablation):
    for encoder_heads, gat_heads in ((4, 4), (5, 4), (4, 5), (5, 5)):
        cfg = TrainConfig(
            gat_hidden=12, gat_heads=gat_heads, d_model=12, encoder_layers=1, encoder_heads=encoder_heads,
            d_ff=8, max_len=8, fusion_heads=2, ablation=ablation,
        )
        outcomes = []
        for check in (cfg.validate, lambda: DetectionModel(cfg, 10, 2, np.random.default_rng(0))):
            try:
                check()
                outcomes.append("accepted")
            except ValueError:
                outcomes.append("rejected")
        assert outcomes[0] == outcomes[1], (encoder_heads, gat_heads)


def test_parameter_groups_partition(setting):
    model, _ = _model(setting)
    gat_group, rest = model.parameter_groups()
    named = model.named_parameters()
    assert len(gat_group) + len(rest) == len(named)
    ids = {id(t) for t in gat_group} | {id(t) for t in rest}
    assert len(ids) == len(named)
    assert {id(t) for t in gat_group} == {id(t) for n, t in named.items() if n.startswith("gat.")}


def test_predictions_in_unit_interval(setting):
    _, _, graph, seqs = setting
    model, _ = _model(setting)
    probs = model.predict(seqs, graph)
    assert probs.shape == (len(seqs),)
    assert np.all((probs > 0) & (probs < 1))


def test_no_gat_has_fewer_parameters(setting):
    full, _ = _model(setting)
    nog, _ = _model(setting, ablation="no_gat")
    count = lambda m: sum(t.size for t in m.named_parameters().values())
    assert count(nog) < count(full)
    assert not any(n.startswith("gat.") for n in nog.named_parameters())


def test_no_encoder_predicts_by_author_only(setting):
    _, _, graph, seqs = setting
    model, _ = _model(setting, ablation="no_encoder")
    same_author = [s for s in seqs]
    a, b = same_author[0], same_author[1]
    b.author_id = a.author_id
    probs = model.predict([a, b], graph)
    assert probs[0] == probs[1]


def test_no_gat_residual_drops_one_row(setting):
    model, graph = _model(setting, ablation="no_gat_residual")
    assert model.gat.residual_proj is None
    emb = model.user_embeddings(graph)
    assert emb.shape[1] == model.gat.num_heads * model.gat.head_dim


def test_single_head_gat_keeps_width(setting):
    model, graph = _model(setting, ablation="single_head_gat")
    assert model.gat.num_heads == 1
    assert model.gat.head_dim == 16
    emb = model.user_embeddings(graph)
    assert emb.shape[1] == 2 * 16  # one head plus the residual projection


def test_no_attention_layer_uses_wide_ffn(setting):
    model, _ = _model(setting, ablation="no_attention_layer")
    assert model.fusion.wq is None
    assert model.fusion.ffn_w.shape[0] == 2 * 16


def test_all_ablations_forward(setting):
    _, vocab, graph, seqs = setting
    for ablation in ABLATIONS:
        model = DetectionModel(_config(ablation=ablation), len(vocab), 2, np.random.default_rng(1))
        probs = model.predict(seqs[:2], graph)
        assert np.all(np.isfinite(probs)), ablation


def test_no_gat_structurally_equals_full_without_user_rows(setting):
    """Dropping the author rows from the full model's fusion reproduces the
    text-only ablation exactly, once the shared parameters agree."""
    _, vocab, graph, seqs = setting
    full = DetectionModel(_config(), len(vocab), 2, np.random.default_rng(2))
    nog = DetectionModel(_config(ablation="no_gat"), len(vocab), 2, np.random.default_rng(3))
    shared = {n: v for n, v in full.state_arrays().items() if not n.startswith("gat.")}
    shared.pop("fusion.head_adapter")
    shared.pop("fusion.residual_adapter")
    state = nog.state_arrays()
    state.update(shared)
    nog.load_state_arrays(state)

    want = nog.predict(seqs[:3], graph)
    got = full.forward_batch(seqs[:3], graph, None).data
    assert np.array_equal(got, want)


def test_state_roundtrip_and_validation(setting):
    model, graph = _model(setting)
    _, _, _, seqs = setting
    state = model.state_arrays()
    other, _ = _model(setting)
    other.load_state_arrays(state)
    assert np.array_equal(other.predict(seqs, graph), model.predict(seqs, graph))
    state.pop("fusion.clf_b")
    with pytest.raises(ValueError, match="clf_b"):
        other.load_state_arrays(state)


# -- the batched forward against a per-tweet reference ----------------------------


def _tweet_probability(model, seq, author_index, embeddings):
    """P(offensive) for one tweet, computed alone: the unpadded, unmasked
    per-tweet path the batched forward replaced, kept as its reference."""
    tokens = None if model.encoder is None else encode_tokens(seq, model.encoder)
    author = None
    if model.gat is not None:
        rows = model.gat.num_heads + (model.gat.residual_proj is not None)
        author = reshape(gather_rows(embeddings, np.array([author_index])), (rows, model.gat.head_dim))
    if model.config.ablation == "no_attention_layer":
        pooled = []
        if tokens is not None:
            pooled.append(tokens.mean(axis=0, keepdims=True))
        if author is not None:
            pooled.append(assemble(None, author, model.fusion).mean(axis=0, keepdims=True))
        x = concat(pooled, axis=1)
    else:
        x = assemble(tokens, author, model.fusion)
        num_tokens = 0 if tokens is None else tokens.shape[0]
        x = fuse_attention(add_position_encoding(x, num_tokens), model.fusion)
    return classify(x, model.fusion, pooling=model.config.pooling).item()


@pytest.mark.parametrize("pooling", ["mean", "cls"])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_batched_forward_matches_per_tweet_reference(setting, ablation, pooling):
    _, vocab, graph, seqs = setting
    model = DetectionModel(_config(ablation=ablation, pooling=pooling), len(vocab), 2, np.random.default_rng(5))
    author = seqs[0].author_id
    one_token = TokenSequence(np.array([vocab.CLS]), author, 0, "one")
    longest = TokenSequence(np.arange(24) % len(vocab), author, 1, "long")
    batch = [seqs[0], one_token, longest, *seqs[1:]]
    got = model.predict(batch, graph)
    embeddings = model.user_embeddings(graph)
    want = np.array([_tweet_probability(model, s, graph.index[s.author_id], embeddings) for s in batch])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_predict_scores_off_the_tape_bit_identically(setting):
    _, _, graph, seqs = setting
    model, _ = _model(setting)
    on_tape = model.forward_batch(seqs, graph, model.user_embeddings(graph))
    assert on_tape.requires_grad
    with no_grad():
        off_tape = model.forward_batch(seqs, graph, model.user_embeddings(graph))
    assert not off_tape.requires_grad
    assert np.array_equal(off_tape.data, on_tape.data)
    assert np.array_equal(model.predict(seqs, graph), on_tape.data)


def test_training_pass_drops_out_at_the_config_rates_in_order(setting, monkeypatch):
    _, _, graph, seqs = setting
    attn, hidden = 0.3, 0.2
    model, _ = _model(setting, attention_dropout=attn, hidden_dropout=hidden, encoder_layers=2)
    rng = np.random.default_rng(0)
    calls, generators = [], []

    def record(x, rate, gen=None):
        calls.append((rate, x.shape))
        generators.append(gen)
        return dropout(x, rate, gen)

    for module in (gat, attention, encoder, fusion):
        monkeypatch.setattr(module, "dropout", record)
    model.forward_batch(seqs, graph, model.user_embeddings(graph, rng=rng), rng=rng)

    cfg = model.config
    edges = len(graph.edge_arrays()[0])
    batch, length = len(seqs), max(len(s) for s in seqs)
    fused = length + cfg.gat_heads + 1  # token slots, head rows, residual row
    tokens = (hidden, (batch, length, cfg.d_model))
    block = [(attn, (batch, cfg.encoder_heads, length, length)), tokens, tokens]
    want = [(attn, (edges,))] * cfg.gat_heads + [tokens] + block * cfg.encoder_layers
    want += [(attn, (batch, cfg.fusion_heads, fused, fused)), (hidden, (batch, fused, cfg.d_ff))]
    assert calls == want
    assert all(g is rng for g in generators)
    without_rng = model.forward_batch(seqs, graph, model.user_embeddings(graph, rng=None), rng=None)
    assert np.array_equal(without_rng.data, model.predict(seqs, graph))


def test_predict_on_no_tweets_is_empty(setting):
    _, _, graph, _ = setting
    model, _ = _model(setting)
    probs = model.predict([], graph)
    assert probs.shape == (0,) and probs.dtype == np.float64


def test_predict_chunks_by_batch_size(setting):
    _, _, graph, seqs = setting
    model, _ = _model(setting)
    whole = model.predict(seqs, graph)
    model.config.batch_size = 4  # two chunks: 4 tweets, then 2
    assert np.max(np.abs(model.predict(seqs, graph) - whole)) <= 1e-12

