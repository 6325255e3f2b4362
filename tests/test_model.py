"""Composed model: ablation wiring, parameter groups, predictions."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from offgraph import attention, encoder, fusion, gat, resources, tensor
from offgraph.corpus import TokenSequence, build_vocab, encode, split_corpus
from offgraph.encoder import encode as encode_tokens
from offgraph.fusion import add_position_encoding, assemble, classify, fuse_attention
from offgraph.graph import build_graph, with_node_features
from offgraph.losses import focal_loss_tensor
from offgraph.model import ABLATIONS, DetectionModel
from offgraph.synthetic import generate_corpus
from offgraph.tensor import concat, dropout, dropout_scale, gather_rows, no_grad, reshape
from offgraph.training import ConfigError, TrainConfig


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
    return TrainConfig(**base)


def _model(setting, **kw):
    _, vocab, graph, _ = setting
    cfg = _config(**kw)
    return DetectionModel(cfg, len(vocab), 2, np.random.default_rng(0)), graph


def test_unknown_ablation_rejected():
    with pytest.raises(ConfigError, match="unknown ablation 'nope'") as info:
        TrainConfig(ablation="nope")  # so no model can be built with it
    assert info.value.keys == ("ablation",)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_a_model_built_without_a_generator_is_the_zero_layout(setting, ablation):
    """The layout a checkpoint fills: every name and shape of a drawn model, Xavier arrays and
    biases at zero, layer-norm gains at one."""
    drawn = _model(setting, ablation=ablation)[0].named_parameters()
    _, vocab, _, _ = setting
    layout = DetectionModel(_config(ablation=ablation), len(vocab), 2, None).named_parameters()
    assert {n: t.shape for n, t in layout.items()} == {n: t.shape for n, t in drawn.items()}
    for name, tensor in layout.items():
        want = 1.0 if name.endswith("_gain") else 0.0
        assert tensor.requires_grad and np.all(tensor.data == want), name


# The model holds no head-count rules of its own: every head count the config
# accepts must build a model that scores, and the rest must not make a config.
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_validate_rejects_exactly_the_head_counts_the_model_rejects(setting, ablation):
    _, vocab, graph, seqs = setting
    for encoder_heads, gat_heads in ((4, 4), (5, 4), (4, 5), (5, 5)):
        try:
            cfg = TrainConfig(
                gat_hidden=12, gat_heads=gat_heads, d_model=12, encoder_layers=1, encoder_heads=encoder_heads,
                d_ff=8, max_len=24, fusion_heads=2, ablation=ablation,
            )
        except ConfigError as exc:
            assert "heads" in exc.keys[0], (encoder_heads, gat_heads)
            continue
        model = DetectionModel(cfg, len(vocab), 2, np.random.default_rng(0))
        scores = model.predict(seqs, graph)
        assert scores.shape == (len(seqs),) and np.all(np.isfinite(scores)), (encoder_heads, gat_heads)


_GAT_HEADS = ["gat.head0.proj", "gat.head0.attn", "gat.head1.proj", "gat.head1.attn"]
_ENCODER = [
    "encoder.token_table", "encoder.pos_table",
    "encoder.block0.ln1_gain", "encoder.block0.ln1_bias",
    "encoder.block0.wqkv", "encoder.block0.wo", "encoder.block0.bqkv", "encoder.block0.bo",
    "encoder.block0.ln2_gain", "encoder.block0.ln2_bias",
    "encoder.block0.ffn_w1", "encoder.block0.ffn_b1", "encoder.block0.ffn_w2", "encoder.block0.ffn_b2",
]
_FUSION_ATTENTION = [
    "fusion.ln1_gain", "fusion.ln1_bias", "fusion.wqkv", "fusion.wo",
    "fusion.ln2_gain", "fusion.ln2_bias",
]
_FUSION_HEAD = ["fusion.ffn_w", "fusion.ffn_b", "fusion.clf_w", "fusion.clf_b"]


@pytest.mark.parametrize("ablation, names", [
    ("full", _GAT_HEADS + ["gat.residual.proj"] + _ENCODER
     + ["fusion.head_adapter", "fusion.residual_adapter"] + _FUSION_ATTENTION + _FUSION_HEAD),
    ("no_gat_residual", _GAT_HEADS + _ENCODER + ["fusion.head_adapter"] + _FUSION_ATTENTION + _FUSION_HEAD),
    ("no_attention_layer", _GAT_HEADS + ["gat.residual.proj"] + _ENCODER
     + ["fusion.head_adapter", "fusion.residual_adapter"] + _FUSION_HEAD),
])
def test_parameter_names_in_checkpoint_order(ablation, names):
    # a checkpoint's "params" block is written in this order
    cfg = TrainConfig(
        gat_hidden=4, gat_heads=2, d_model=4, encoder_layers=1, encoder_heads=2,
        d_ff=4, max_len=4, fusion_heads=2, ablation=ablation,
    )
    assert list(DetectionModel(cfg, 5, 2, np.random.default_rng(0)).named_parameters()) == names


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
    assert model.fusion.wqkv is None
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
    got = full.forward_batch(seqs[:3], None).data
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
    """P(offensive) for one tweet, computed alone as a batch of one: the
    unpadded per-tweet path the batched forward replaced, kept as its
    reference. Its masks keep every row."""
    tokens = author = None
    if model.encoder is not None:
        ids = seq.token_ids[None, :]
        tokens = encode_tokens(ids, model.encoder, mask=np.ones(ids.shape, dtype=bool))
    if model.gat is not None:
        rows = model.gat.num_heads + (model.gat.residual_proj is not None)
        author = reshape(gather_rows(embeddings, np.array([author_index])), (1, rows, model.gat.head_dim))
    if model.config.ablation == "no_attention_layer":
        pooled = []
        if tokens is not None:
            pooled.append(tokens.mean(axis=1, keepdims=True))
        if author is not None:
            pooled.append(assemble(None, author, model.fusion).mean(axis=1, keepdims=True))
        x = concat(pooled, axis=-1)
    else:
        x = assemble(tokens, author, model.fusion)
        num_tokens = np.array([0 if tokens is None else tokens.shape[1]])
        x = add_position_encoding(x, num_tokens)
        x = fuse_attention(x, model.fusion, mask=np.ones(x.shape[:2], dtype=bool))
    return classify(x, model.fusion, pooling=model.config.pooling).item()


# batch_size 2 and 3 split the length-mixed batch over several chunks, so
# predict's length order is undone across chunk boundaries; the one-chunk
# default keeps the plain [ablation-pooling] id
@pytest.mark.parametrize(
    "ablation, pooling, batch_size",
    [
        pytest.param(a, p, b, id=f"{a}-{p}" + (f"-{b}" if b != 64 else ""))
        for a in ABLATIONS for p in ("mean", "cls") for b in (64, 2, 3)
    ],
)
def test_batched_forward_matches_per_tweet_reference(setting, ablation, pooling, batch_size):
    _, vocab, graph, seqs = setting
    config = _config(ablation=ablation, pooling=pooling, batch_size=batch_size)
    model = DetectionModel(config, len(vocab), 2, np.random.default_rng(5))
    author = seqs[0].author_id
    one_token = TokenSequence(np.array([vocab.CLS]), author, 0, "one")
    longest = TokenSequence(np.arange(24) % len(vocab), author, 1, "long")
    batch = [seqs[0], one_token, longest, *seqs[1:]]
    got = model.predict(batch, graph)
    embeddings = model.user_embeddings(graph)
    want = np.array([_tweet_probability(model, s, graph.index[s.author_id], embeddings) for s in batch])
    assert np.max(np.abs(got - want)) <= 1e-12


def _in_length_order(model, graph, seqs):
    """One ``forward_batch`` over ``seqs`` in stable length order, its scores
    put back in caller order: what ``predict`` computes for a single chunk."""
    order = np.argsort([len(s) for s in seqs], kind="stable")
    assert not np.array_equal(order, np.arange(len(seqs)))  # the order really is undone
    ordered = [seqs[i] for i in order]
    authors = model.user_embeddings(graph, graph.node_ids([s.author_id for s in ordered]))
    scores = np.empty(len(seqs))
    scores[order] = model.forward_batch(ordered, authors).data
    return scores


def test_predict_scores_off_the_tape_bit_identically(setting):
    _, _, graph, seqs = setting
    model, _ = _model(setting)
    authors = graph.node_ids([s.author_id for s in seqs])
    on_tape = model.forward_batch(seqs, model.user_embeddings(graph, authors))
    assert on_tape.requires_grad
    with no_grad():
        off_tape = model.forward_batch(seqs, model.user_embeddings(graph, authors))
    assert not off_tape.requires_grad
    assert np.array_equal(off_tape.data, on_tape.data)
    assert np.array_equal(model.predict(seqs, graph), _in_length_order(model, graph, seqs))


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

    def record_gat(shape, rate, gen, at=...):
        calls.append((rate, shape))
        generators.append(gen)
        return dropout_scale(shape, rate, gen, at)

    monkeypatch.setattr(gat, "dropout_scale", record_gat)
    for module in (attention, encoder, fusion):
        monkeypatch.setattr(module, "dropout", record)
    authors = graph.node_ids([s.author_id for s in seqs])
    model.forward_batch(seqs, model.user_embeddings(graph, authors, rng=rng), rng=rng)

    cfg = model.config
    edges = len(graph.edge_arrays()[0])
    batch, length = len(seqs), max(len(s) for s in seqs)
    fused = length + cfg.gat_heads + 1  # token slots, head rows, residual row
    tokens = (hidden, (batch, length, cfg.d_model))
    block = [(attn, (batch, cfg.encoder_heads, length, length)), tokens, tokens]
    want = [(attn, (cfg.gat_heads, edges)), tokens] + block * cfg.encoder_layers
    want += [(attn, (batch, cfg.fusion_heads, fused, fused)), (hidden, (batch, fused, cfg.d_ff))]
    assert calls == want
    assert all(g is rng for g in generators)
    assert np.array_equal(_in_length_order(model, graph, seqs), model.predict(seqs, graph))


@pytest.mark.parametrize("symmetric", [False, True])
def test_training_pass_draws_dropout_over_every_edge(setting, symmetric):
    """The author-local pass leaves the dropout stream where the full pass would."""
    _, _, graph, seqs = setting
    model, _ = _model(setting, attention_dropout=0.3, symmetric_neighbors=symmetric)
    rng, want = np.random.default_rng(0), np.random.default_rng(0)
    model.user_embeddings(graph, graph.node_ids([s.author_id for s in seqs]), rng=rng)
    for _ in range(model.gat.num_heads):
        want.random(len(graph.edge_arrays(symmetric)[0]))
    assert rng.bit_generator.state == want.bit_generator.state


def test_one_author_with_500_tweets_keeps_loss_and_gradients_finite(setting):
    _, _, graph, seqs = setting
    model, _ = _model(setting, attention_dropout=0.3, hidden_dropout=0.2)
    author = seqs[0].author_id
    batch = [replace(seqs[i % len(seqs)], author_id=author, label=i % 2) for i in range(500)]
    rng = np.random.default_rng(0)
    authors = model.user_embeddings(graph, graph.node_ids([s.author_id for s in batch]), rng=rng)
    loss = focal_loss_tensor(model.forward_batch(batch, authors, rng=rng), [s.label for s in batch])
    loss.backward()
    assert np.isfinite(loss.item())
    for name, param in model.named_parameters().items():
        assert param.grad is not None and np.all(np.isfinite(param.grad)), name


@pytest.fixture(scope="module")
def wide_graph():
    """The wide benchmark's graph: 10,000 users, features from a 70 % training split."""
    corpus = generate_corpus(400, 10000, seed=7)
    split = split_corpus(corpus, 0.7, np.random.default_rng(0))
    graph = with_node_features(build_graph(corpus), split.train, "soft", "nonoff")
    return graph, graph.node_ids([t.user_id for t in corpus.tweets[:64]])


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("ablation", [a for a in ABLATIONS if a != "no_gat"])
def test_author_rows_equal_full_pass_rows_on_a_wide_graph(wide_graph, ablation, symmetric):
    graph, authors = wide_graph
    config = TrainConfig(ablation=ablation, symmetric_neighbors=symmetric)
    model = DetectionModel(config, 10, 2, np.random.default_rng(1))
    full = model.user_embeddings(graph).data
    assert np.array_equal(model.user_embeddings(graph, authors).data, full[authors])


def test_predict_on_no_tweets_is_empty(setting):
    _, _, graph, _ = setting
    model, _ = _model(setting)
    probs = model.predict([], graph)
    assert probs.shape == (0,) and probs.dtype == np.float64


def test_predict_chunks_by_batch_size(setting):
    _, _, graph, seqs = setting
    model, _ = _model(setting)
    whole = model.predict(seqs, graph)
    model.config = replace(model.config, batch_size=4)  # two chunks: 4 tweets, then 2
    assert np.max(np.abs(model.predict(seqs, graph) - whole)) <= 1e-12



def test_predict_scores_the_same_at_any_worker_count(setting, monkeypatch):
    """Five chunks of two, given out of length order, scored by one thread and by three (more than
    the cores of a small box); and two chunks, scored by three."""
    _, vocab, graph, seqs = setting
    model, _ = _model(setting, batch_size=2)
    author = seqs[0].author_id
    one_token = TokenSequence(np.array([vocab.CLS]), author, 0, "one")
    longest = TokenSequence(np.arange(24) % len(vocab), author, 1, "long")
    batch = [longest, *seqs, one_token, seqs[1], seqs[0]]
    assert not np.array_equal(np.argsort([len(s) for s in batch], kind="stable"), np.arange(len(batch)))

    def scored(workers, tweets):
        monkeypatch.setattr(resources, "scoring_workers", lambda: workers)
        return model.predict(tweets, graph)

    serial = scored(1, batch)
    assert np.array_equal(scored(3, batch[:3]), scored(1, batch[:3]))  # two chunks, fewer than the workers
    switching = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
    try:
        for _ in range(5):
            assert np.array_equal(scored(3, batch), serial)
    finally:
        sys.setswitchinterval(switching)

    # the first failing chunk in length order raises, whichever thread finishes first
    out_of_vocab = TokenSequence(np.array([len(vocab) + 5]), author, 2, "bad")
    overlong = TokenSequence(np.zeros(30, dtype=np.int64), author, 3, "overlong")
    errors = []
    for workers in (1, 3):
        with pytest.raises(ValueError) as raised:
            scored(workers, [overlong, *batch, out_of_vocab])
        errors.append(str(raised.value))
    assert errors == ["token id out of vocabulary range"] * 2


def test_backward_gives_every_leaf_the_same_gradient_on_its_helper_thread(setting, monkeypatch):
    """One training step's backward at one worker, where every deferred gradient is computed
    inline, and at three, where backward hands those of leaves to its helper threads."""
    _, _, graph, seqs = setting
    ran_on_main = []
    run = resources.Job.run

    def watched(job):
        ran_on_main.append(threading.current_thread() is threading.main_thread())
        run(job)

    monkeypatch.setattr(resources.Job, "run", watched)

    def gradients(workers):
        monkeypatch.setattr(resources, "scoring_workers", lambda: workers)
        ran_on_main.clear()
        model, _ = _model(setting, attention_dropout=0.3, hidden_dropout=0.2)
        rng = np.random.default_rng(0)
        authors = model.user_embeddings(graph, graph.node_ids([s.author_id for s in seqs]), rng=rng)
        focal_loss_tensor(model.forward_batch(seqs, authors, rng=rng), [s.label for s in seqs]).backward()
        return {name: p.grad for name, p in model.named_parameters().items()}

    inline = gradients(1)
    assert ran_on_main == []  # nothing handed to a helper thread
    assert all(g is not None for g in inline.values())
    switching = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
    try:
        for _ in range(3):
            threaded = gradients(3)
            assert ran_on_main and not any(ran_on_main)
            assert list(threaded) == list(inline)
            for name, grad in inline.items():
                assert np.array_equal(threaded[name], grad), name
    finally:
        sys.setswitchinterval(switching)
