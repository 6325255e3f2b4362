"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS line when its criterion holds (run with
``pytest -s`` to see them); a failed criterion fails its test. The end-to-end
criteria train the full desk-scale model on the planted synthetic corpus.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from offgraph import tensor as T
from offgraph.corpus import Corpus, build_vocab, encode, split_corpus
from offgraph.fusion import fuse_attention
from offgraph.gat import GatParams, attention_coefficients, gat_forward
from offgraph.graph import SocialGraph, build_graph, mask_test_information, with_node_features
from offgraph.losses import FocalParams, focal_loss, focal_loss_tensor
from offgraph.metrics import ConfusionMatrix, auc_score, macro_metrics
from offgraph.model import DetectionModel
from offgraph.preprocess import RawTweet
from offgraph.synthetic import generate_corpus
from offgraph.tensor import Tensor
from offgraph.training import EarlyStopper, TrainConfig, fit, sweep, train

from dense_gat import dense_gat
from gradcheck import assert_gradients_match, away_from_kinks, max_relative_error, numerical_grad

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _pass(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nPASS  {name}{suffix}")


# Desk-scale end-to-end setting. The from-scratch encoder needs a larger
# step size and lighter attention dropout than the fine-tuning-oriented
# defaults; both are ordinary config fields.
E2E_CONFIG = TrainConfig(
    seed=7,
    max_epochs=20,
    early_stop_patience=5,
    batch_size=64,
    lr_gat=1e-2,
    lr_rest=1e-2,
    attention_dropout=0.1,
    max_len=32,
)


def _tiny_config(**kw):
    base = dict(
        max_epochs=2, early_stop_patience=2, batch_size=16,
        gat_hidden=8, gat_heads=2, d_model=8, encoder_layers=1, encoder_heads=2,
        d_ff=12, max_len=16, fusion_heads=2, seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


# -- criterion: gradient correctness ------------------------------------------------


def test_gradient_correctness_primitives_and_composite():
    started = time.monotonic()
    rng = np.random.default_rng(0)

    x = Tensor(away_from_kinks(rng.uniform(-2, 2, (4, 5))), requires_grad=True)
    w = Tensor(away_from_kinks(rng.uniform(-2, 2, (5, 3))), requires_grad=True)
    pos = Tensor(rng.uniform(0.2, 2.0, (4, 5)), requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, 5), requires_grad=True)
    seg = np.array([0, 0, 1, 2, 2])
    scores = Tensor(rng.uniform(-1.5, 1.5, 5), requires_grad=True)
    vals = Tensor(rng.uniform(0.2, 2.0, (5, 3)), requires_grad=True)
    primitives = {
        "matmul": (lambda: (x @ w).sum(), [x, w]),
        "add_mul": (lambda: ((x + pos) * pos).mean(), [x, pos]),
        "softmax": (lambda: (T.softmax(x, axis=-1) * pos).sum(), [x, pos]),
        "layer_norm": (lambda: (T.layer_norm(x, gain, bias) * pos).sum(), [x, gain, bias]),
        "relu_leaky_elu": (lambda: (T.relu(x) + T.leaky_relu(x) + T.elu(x)).sum(), [x]),
        "sigmoid_log_pow": (lambda: (T.log(pos) + T.sigmoid(x) + T.power(pos, 1.5)).sum(), [x, pos]),
        "concat_slice_gather": (
            lambda: T.concat([x[0:2], T.gather_rows(x, np.array([1, 3, 3]))], axis=0).sum(),
            [x],
        ),
        "reductions": (lambda: T.reduce_mean(x, axis=0).sum() + T.reduce_sum(x, axis=1).mean(), [x]),
        "segment_softmax_sum": (
            lambda: T.segment_sum(T.mul(T.reshape(T.segment_softmax(scores, seg, 3), (5, 1)), vals), seg, 3).sum(),
            [scores, vals],
        ),
        "transpose_exp_clip": (lambda: (T.exp(x.T @ x) * Tensor(0.01)).sum() + T.clip(pos, 0.3, 1.9).sum(), [x, pos]),
    }
    for name, (fn, tensors) in primitives.items():
        worst = assert_gradients_match(fn, tensors, rtol=1e-4)
        assert worst < 1e-4, name

    # composite: full model on a two-tweet micro-batch through the focal loss
    corpus = Corpus(
        tweets=[
            RawTweet("t1", "a", "miko zapu zapu riko", 1),
            RawTweet("t2", "b", "lomu depa gani", 0),
            RawTweet("t3", "c", "gani lomu miko", 0),
        ],
        edges=[("a", "b"), ("b", "c"), ("c", "a")],
    )
    vocab = build_vocab(corpus.tweets)
    graph = with_node_features(build_graph(corpus), corpus.tweets, "soft", "nonoff")
    config = _tiny_config(gat_hidden=4, gat_heads=2, d_model=4, encoder_heads=2, d_ff=6, max_len=8)
    model = DetectionModel(config, len(vocab), 2, np.random.default_rng(1))
    seqs = [encode(t, vocab, config.max_len) for t in corpus.tweets[:2]]
    labels = [t.label for t in corpus.tweets[:2]]
    params = model.named_parameters()

    def forward():
        authors = model.user_embeddings(graph, graph.node_ids([s.author_id for s in seqs]))
        probs = model.forward_batch(seqs, authors)
        return focal_loss_tensor(probs, labels)

    for tensor in params.values():
        tensor.grad = None
    forward().backward()
    worst_composite = 0.0
    for name, tensor in params.items():
        assert tensor.grad is not None, name
        err = max_relative_error(tensor.grad, numerical_grad(forward, tensor))
        worst_composite = max(worst_composite, err)
        assert err < 1e-3, f"{name}: {err:.2e}"

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _pass("gradient correctness", f"composite worst rel err {worst_composite:.2e}, {elapsed:.0f}s")


# -- criterion: GAT oracle equivalence -----------------------------------------------


def test_gat_oracle_equivalence():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        nodes = [f"n{i}" for i in range(n)]
        arcs = [(i, j) for i in range(n) for j in range(n) if j != i and rng.random() < 0.5]
        graph = SocialGraph(nodes=nodes, arcs=np.array(arcs, dtype=np.int64).reshape(-1, 2))
        feature_dim = int(rng.integers(1, 4))
        params = GatParams.init(feature_dim, int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
        x = rng.normal(size=(n, feature_dim))
        gap = np.max(np.abs(gat_forward(Tensor(x), graph, params).data - dense_gat(x, graph, params)))
        worst = max(worst, gap)
        assert gap < 1e-10
    _pass("GAT oracle equivalence", f"worst gap {worst:.2e} over 10 graphs")


# -- criterion: attention normalization ------------------------------------------------


def test_attention_normalization(attention_probs):
    rng = np.random.default_rng(5)

    nodes = [f"n{i}" for i in range(20)]
    arcs = [(i, j) for i in range(20) for j in range(20) if j != i and rng.random() < 0.3]
    graph = SocialGraph(nodes=nodes, arcs=np.array(arcs, dtype=np.int64).reshape(-1, 2))
    params = GatParams.init(2, 4, 8, rng)
    src, dst = graph.edge_arrays()
    worst = 0.0
    for head in range(4):
        z = T.matmul(Tensor(rng.normal(size=(20, 2))), params.head_proj[head])
        alpha = attention_coefficients(z, src, dst, params.head_attn[head], 20)
        sums = np.zeros(20)
        np.add.at(sums, src, alpha.data)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))

    from offgraph.encoder import EncoderParams

    enc = EncoderParams.init(40, 16, 8, 2, 2, 16, rng)
    for block in enc.blocks:
        from offgraph.encoder import self_attention_block

        self_attention_block(Tensor(rng.normal(size=(1, 7, 8))), block, 2, mask=np.ones((1, 7), dtype=bool))

    from offgraph.fusion import FusionParams

    fus = FusionParams.init(8, 16, rng, num_heads=2, gat_head_dim=4)
    fuse_attention(Tensor(rng.normal(size=(1, 9, 8))), fus, mask=np.ones((1, 9), dtype=bool))

    assert len(attention_probs) == 2 * 2 + 2  # two encoder blocks and the fusion layer, two heads each
    for probs in attention_probs:
        worst = max(worst, float(np.max(np.abs(probs.sum(axis=-1) - 1.0))))
    assert worst < 1e-9
    _pass("attention normalization", f"worst row deviation {worst:.2e}")


# -- criterion: focal loss closed form ---------------------------------------------------


def test_focal_loss_closed_form():
    positive = 0.25 * 0.1**2 * -math.log(0.9)
    negative = 0.75 * 0.9**2 * -math.log(0.1)
    assert abs(focal_loss(0.9, 1) - positive) < 1e-8
    assert abs(positive - 2.634e-4) < 1e-7
    assert abs(focal_loss(0.9, 0) - negative) < 1e-8
    assert abs(negative - 1.3988) < 1e-4

    params = FocalParams(alpha=0.5, gamma=0.0)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        p = float(rng.uniform(1e-4, 1 - 1e-4))
        y = int(rng.integers(0, 2))
        half_ce = 0.5 * -math.log(p if y == 1 else 1 - p)
        worst = max(worst, abs(focal_loss(p, y, params) - half_ce))
    assert worst < 1e-10
    _pass("focal loss closed form", f"cross-entropy reduction gap {worst:.2e}")


# -- criterion: AUC ---------------------------------------------------------------------


def test_auc_rank_vs_pairwise():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 60))
        scores = rng.choice([0.05, 0.2, 0.2, 0.5, 0.8, 0.8, 0.95], size=n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        pairwise = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (len(pos) * len(neg))
        worst = max(worst, abs(auc_score(scores, labels) - pairwise))
    assert worst <= 1e-12
    _pass("AUC rank formula", f"worst |rank - pairwise| = {worst:.2e}")


# -- criterion: metric suite ---------------------------------------------------------------


def test_metric_suite_worked_example():
    confusion = ConfusionMatrix(true_positive=8, false_negative=2, false_positive=1, true_negative=9)
    accuracy, precision, recall, f1 = macro_metrics(confusion)
    assert abs(accuracy - 0.85) < 1e-12
    assert abs(f1 - 0.8496) < 1e-4

    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, 500)
    labels[:2] = [0, 1]
    preds = rng.integers(0, 2, 500)
    got = macro_metrics(ConfusionMatrix.from_predictions(labels, preds))
    per_class = {"p": [], "r": [], "f": []}
    for cls in (0, 1):
        tp = int(np.sum((labels == cls) & (preds == cls)))
        fp = int(np.sum((labels != cls) & (preds == cls)))
        fn = int(np.sum((labels == cls) & (preds != cls)))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        per_class["p"].append(p)
        per_class["r"].append(r)
        per_class["f"].append(2 * p * r / (p + r) if p + r else 0.0)
    want = (
        float(np.mean(labels == preds)),
        float(np.mean(per_class["p"])),
        float(np.mean(per_class["r"])),
        float(np.mean(per_class["f"])),
    )
    assert np.allclose(got, want, atol=1e-12)
    _pass("metric suite", f"macro-F1 worked example = {f1:.6f}")


# -- criterion: leakage and masking -----------------------------------------------------------


def test_leakage_and_masking():
    corpus = generate_corpus(300, 40, seed=11)
    split = split_corpus(corpus, 0.7, np.random.default_rng([11, 0]))
    graph = with_node_features(build_graph(corpus), corpus.tweets, "soft", "nonoff")
    masked = mask_test_information(graph, split)
    recount: dict[str, list[float]] = {}
    for t in split.train:
        row = recount.setdefault(t.user_id, [0.0, 0.0])
        row[t.label] += 1.0
    for i, user in enumerate(masked.nodes):
        assert masked.features[i].tolist() == recount.get(user, [1.0, 1e-6])

    cfg = _tiny_config(seed=11)
    base_split = split_corpus(corpus, cfg.train_fraction, np.random.default_rng([cfg.seed, 0]))
    flipped = Corpus(
        tweets=[
            RawTweet(t.tweet_id, t.user_id, t.text, 1 - t.label) if t.tweet_id in base_split.test_ids else t
            for t in corpus.tweets
        ],
        edges=list(corpus.edges),
    )
    base = fit(cfg, corpus).model.state_arrays()
    poisoned = fit(cfg, flipped).model.state_arrays()
    for name, value in base.items():
        assert np.array_equal(value, poisoned[name]), name
    _pass("leakage and masking", f"{len(base)} parameter tensors bit-identical under test-label flips")


# -- criterion: end-to-end learning -----------------------------------------------------------


@pytest.fixture(scope="module")
def planted_corpus():
    return generate_corpus(1000, 100, seed=7)


@pytest.fixture(scope="module")
def e2e_run(planted_corpus):
    started = time.monotonic()
    result = train(E2E_CONFIG, planted_corpus)
    return result, time.monotonic() - started


@pytest.mark.slow
def test_end_to_end_learning(planted_corpus, e2e_run):
    result, elapsed = e2e_run
    rate = sum(t.label for t in planted_corpus.tweets) / len(planted_corpus.tweets)
    assert 0.05 < rate < 0.12
    assert result.epochs_run <= 20
    assert result.best_metrics.f1 >= 0.85
    assert elapsed < 600.0

    author_only = train(replace(E2E_CONFIG, ablation="no_encoder"), planted_corpus)
    assert author_only.best_metrics.f1 < result.best_metrics.f1
    _pass(
        "end-to-end learning",
        f"full F1 {result.best_metrics.f1:.4f} in {result.epochs_run} epochs / {elapsed:.0f}s; "
        f"author-only F1 {author_only.best_metrics.f1:.4f}",
    )


# -- criterion: protocol fidelity ---------------------------------------------------------------


def test_protocol_fidelity():
    stopper = EarlyStopper(patience=5)
    history = [0.6, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7]
    stops = [stopper.update(e, f1) for e, f1 in enumerate(history, start=1)]
    assert stops == [False] * 6 + [True]
    assert stopper.best_epoch == 2

    corpus = generate_corpus(240, 30, seed=9)
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1, batch_size=64, stratify_split=True)
    rows = {
        "train_fraction": len(sweep(cfg, "train_fraction", corpus).strip().splitlines()) - 1,
        "init": len(sweep(cfg, "init", corpus).strip().splitlines()) - 1,
        "variant": len(sweep(cfg, "variant", corpus).strip().splitlines()) - 1,
    }
    assert rows == {"train_fraction": 9, "init": 8, "variant": 6}
    _pass("protocol fidelity", f"early-stop trace exact; sweep rows {rows}")


# -- criterion: reproducibility -------------------------------------------------------------------


def test_reproducibility_byte_identical():
    corpus = generate_corpus(160, 24, seed=5)
    cfg = _tiny_config()
    first = train(cfg, corpus).to_json().encode()
    second = train(cfg, corpus).to_json().encode()
    assert first == second
    _pass("reproducibility", f"{len(first)} result-JSON bytes identical across runs")
