"""Training harness: protocol rules, determinism, leakage, sweeps."""

import json
from dataclasses import replace

import numpy as np
import pytest

from offgraph.corpus import Corpus, split_corpus
from offgraph.preprocess import RawTweet
from offgraph.synthetic import generate_corpus
from offgraph.training import (
    EarlyStopper,
    TrainConfig,
    TrainingDiverged,
    ablate,
    fit,
    load_checkpoint,
    parse_config_file,
    replicate,
    run_ablation_table,
    save_checkpoint,
    sweep,
    train,
    write_config_file,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _tiny_config(**kw):
    base = dict(
        max_epochs=2, early_stop_patience=2, batch_size=16,
        gat_hidden=8, gat_heads=2, d_model=8, encoder_layers=1, encoder_heads=2,
        d_ff=12, max_len=16, fusion_heads=2, seed=3,
    )
    base.update(kw)
    return TrainConfig(**base).validate()


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(160, 24, seed=5)


# -- config ---------------------------------------------------------------------


def test_config_defaults_match_protocol():
    cfg = TrainConfig()
    assert (cfg.train_fraction, cfg.batch_size, cfg.max_epochs, cfg.early_stop_patience) == (0.7, 64, 20, 5)
    assert (cfg.lr_gat, cfg.lr_rest) == (1e-2, 5e-5)
    assert (cfg.focal_alpha, cfg.focal_gamma) == (0.25, 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=30).validate()
    with pytest.raises(ValueError):
        TrainConfig(train_fraction=1.5).validate()
    with pytest.raises(ValueError):
        TrainConfig(ablation="bogus").validate()
    with pytest.raises(ValueError, match=r"pooling 'max'.*'mean', 'cls'"):
        TrainConfig(pooling="max").validate()
    with pytest.raises(ValueError, match=r"graph_variant 'dense'.*'soft', 'hard', 'bow'"):
        TrainConfig(graph_variant="dense").validate()
    with pytest.raises(ValueError, match=r"init_strategy 'zeros'.*'all0', 'all1', 'avg', 'nonoff'"):
        TrainConfig(init_strategy="zeros").validate()
    with pytest.raises(ValueError, match=r"attention_dropout must be in \[0, 1\), got 1.0"):
        TrainConfig(attention_dropout=1.0).validate()
    with pytest.raises(ValueError, match=r"hidden_dropout must be in \[0, 1\), got -0.1"):
        TrainConfig(hidden_dropout=-0.1).validate()
    with pytest.raises(ValueError, match="fusion_heads 3 must divide d_model 64"):
        TrainConfig(fusion_heads=3).validate()
    TrainConfig(attention_dropout=0.0, hidden_dropout=0.0).validate()


def test_config_file_roundtrip(tmp_path):
    cfg = _tiny_config(lr_rest=0.004, stratify_split=True, graph_variant="hard")
    path = tmp_path / "run.cfg"
    write_config_file(cfg, path)
    assert parse_config_file(path) == cfg


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense = 5\n")
    with pytest.raises(ValueError, match="nonsense"):
        parse_config_file(path)


def test_config_file_comments_and_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nbatch_size = 8\nstratify_split = true\n")
    cfg = parse_config_file(path)
    assert cfg.batch_size == 8 and cfg.stratify_split is True
    path.write_text("batch_size 8\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_file(path)
    path.write_text("pooling = max\n")
    with pytest.raises(ValueError, match="unknown pooling 'max'"):
        parse_config_file(path)


# -- early stopping ----------------------------------------------------------------


def test_early_stopper_scripted_trace():
    stopper = EarlyStopper(patience=5)
    history = [0.6, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7]
    stops = [stopper.update(epoch, f1) for epoch, f1 in enumerate(history, start=1)]
    assert stops == [False, False, False, False, False, False, True]
    assert stopper.best_epoch == 2
    assert stopper.best == 0.7


def test_early_stopper_resets_on_improvement():
    stopper = EarlyStopper(patience=2)
    assert not stopper.update(1, 0.5)
    assert not stopper.update(2, 0.4)
    assert not stopper.update(3, 0.6)  # improvement resets the stale count
    assert not stopper.update(4, 0.6)
    assert stopper.update(5, 0.6)
    assert stopper.best_epoch == 3


def test_training_respects_early_stop_and_max_epochs(corpus):
    cfg = _tiny_config(max_epochs=4, early_stop_patience=1, lr_rest=1e-5)
    result = train(cfg, corpus)
    assert result.epochs_run <= 4
    assert result.best_epoch <= result.epochs_run
    assert result.best_metrics.f1 == max(result.epoch_f1)


# -- determinism and leakage ---------------------------------------------------------


def test_fixed_seed_reproducible_bytes(corpus):
    cfg = _tiny_config()
    a = train(cfg, corpus).to_json()
    b = train(cfg, corpus).to_json()
    assert a.encode() == b.encode()


def test_different_seeds_differ(corpus):
    a = train(_tiny_config(seed=1), corpus)
    b = train(_tiny_config(seed=2), corpus)
    assert a.to_json() != b.to_json()


def test_test_labels_never_touch_parameters(corpus):
    # early stopping reads test F1, so pin the epoch count to make the
    # comparison label-independent
    cfg = _tiny_config(max_epochs=2, early_stop_patience=2)
    split = split_corpus(corpus, cfg.train_fraction, np.random.default_rng([cfg.seed, 0]), cfg.stratify_split)
    flipped = Corpus(
        tweets=[
            RawTweet(t.tweet_id, t.user_id, t.text, 1 - t.label) if t.tweet_id in split.test_ids else t
            for t in corpus.tweets
        ],
        edges=list(corpus.edges),
    )
    base = fit(cfg, corpus)
    poisoned = fit(cfg, flipped)
    for name, value in base.model.state_arrays().items():
        assert np.array_equal(value, poisoned.model.state_arrays()[name]), name


def test_vocab_built_from_training_side_only(corpus):
    from offgraph.corpus import tokenize

    run = fit(_tiny_config(max_epochs=1, early_stop_patience=1), corpus)
    train_tokens = {tok for t in run.split.train for tok in tokenize(t.text)}
    test_only = {tok for t in run.split.test for tok in tokenize(t.text)} - train_tokens
    assert test_only, "fixture should have test-only tokens"
    assert not test_only & set(run.vocab.index)


@pytest.fixture
def no_model(monkeypatch):
    """Fail the test if fit gets as far as building the model."""
    import offgraph.training

    def refuse(*args, **kwargs):
        raise AssertionError("fit built the model before checking its split")

    monkeypatch.setattr(offgraph.training, "DetectionModel", refuse)


def test_fit_rejects_an_empty_test_split_early(no_model):
    tiny = generate_corpus(200, 25, seed=5)
    three = Corpus(tweets=tiny.tweets[:3], edges=list(tiny.edges), users=tiny.users)
    with pytest.raises(ValueError, match="3 train, 0 test"):
        fit(_tiny_config(), three)


def test_fit_rejects_a_single_class_test_split_early(corpus, no_model):
    benign = Corpus(
        tweets=[RawTweet(t.tweet_id, t.user_id, t.text, 0) for t in corpus.tweets],
        edges=list(corpus.edges),
    )
    with pytest.raises(ValueError, match="48 non-offensive, 0 offensive"):
        fit(_tiny_config(), benign)


def test_divergence_aborts(corpus):
    # a step this large overflows float64 activations into inf/nan
    cfg = _tiny_config(lr_rest=1e160, lr_gat=1e160, max_epochs=3, early_stop_patience=3)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train(cfg, corpus)


# -- ablations -------------------------------------------------------------------


def test_ablate_rejects_unknown(corpus):
    with pytest.raises(ValueError):
        ablate(_tiny_config(), "nope", corpus)


def test_ablation_table_has_six_rows(corpus):
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1)
    rows = run_ablation_table(cfg, corpus)
    assert len(rows) == 6
    assert rows[0]["variant"] == "full"
    assert {r["variant"] for r in rows} == {
        "full", "no_gat", "no_encoder", "no_gat_residual", "single_head_gat", "no_attention_layer",
    }
    assert all("f1" in r for r in rows)


def test_no_encoder_run_is_author_granular(corpus):
    # two different test tweets by one author get identical predictions
    from offgraph.corpus import encode

    cfg = _tiny_config(max_epochs=1, early_stop_patience=1)
    run = fit(replace(cfg, ablation="no_encoder"), corpus)
    authors = {}
    for t in run.split.test:
        authors.setdefault(t.user_id, []).append(t)
    multi = next(ts for ts in authors.values() if len(ts) >= 2)
    seqs = [encode(t, run.vocab, cfg.max_len) for t in multi[:2]]
    probs = run.model.predict(seqs, run.graph)
    assert probs[0] == probs[1]


# -- replication -----------------------------------------------------------------


def test_replicate_single_run_equals_train(corpus):
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1)
    report = replicate(cfg, corpus, n=1)
    single = train(cfg, corpus)
    assert report.mean["f1"] == single.best_metrics.f1
    assert report.std["f1"] == 0.0


@pytest.mark.slow
def test_replicate_ten_runs_are_stable():
    # calibrated once at this exact setting: every derived seed transitions
    # within the epoch budget, so F1 varies only mildly across replications
    corpus = generate_corpus(400, 50, seed=9)
    cfg = TrainConfig(
        max_epochs=20, early_stop_patience=14, batch_size=64,
        lr_rest=1e-2, attention_dropout=0.1,
        gat_hidden=16, gat_heads=4, d_model=32, encoder_layers=1,
        encoder_heads=4, d_ff=64, max_len=32, fusion_heads=2, seed=100,
        stratify_split=True,
    )
    report = replicate(cfg, corpus, n=10)
    assert len(report.runs) == 10
    assert report.std["f1"] < 0.05
    assert report.mean["f1"] > 0.9


def test_replicate_mean_is_arithmetic_mean(corpus):
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1)
    report = replicate(cfg, corpus, n=3)
    f1s = [r.best_metrics.f1 for r in report.runs]
    assert abs(report.mean["f1"] - np.mean(f1s)) < 1e-12
    seeds = [r.seed for r in report.runs]
    assert seeds == [cfg.seed, cfg.seed + 1, cfg.seed + 2]


# -- sweeps ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_corpus():
    # large enough that a stratified 0.9 split still leaves a positive test tweet
    return generate_corpus(240, 30, seed=9)


def test_fraction_sweep_has_nine_rows(sweep_corpus):
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1, batch_size=64, stratify_split=True)
    table = sweep(cfg, "train_fraction", sweep_corpus)
    lines = table.strip().splitlines()
    assert lines[0] == "train_fraction,auc,accuracy,precision,recall,f1"
    assert len(lines) == 1 + 9


def test_init_sweep_has_eight_rows(sweep_corpus):
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1, batch_size=64, stratify_split=True)
    lines = sweep(cfg, "init", sweep_corpus).strip().splitlines()
    assert len(lines) == 1 + 8
    assert sum(line.startswith("0.1,") for line in lines[1:]) == 4


def test_variant_sweep_has_six_rows(sweep_corpus):
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1, batch_size=64, stratify_split=True)
    lines = sweep(cfg, "variant", sweep_corpus).strip().splitlines()
    assert len(lines) == 1 + 6
    assert sum(line.startswith("graph_only,") for line in lines[1:]) == 3
    assert sum(line.startswith("full,") for line in lines[1:]) == 3


def test_sweep_rejects_unknown_axis(sweep_corpus):
    with pytest.raises(ValueError):
        sweep(_tiny_config(), "bogus", sweep_corpus)


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, corpus):
    cfg = _tiny_config()
    run = fit(cfg, corpus)
    path = tmp_path / "ckpt.json"
    save_checkpoint(run, path)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.vocab.tokens == run.vocab.tokens
    from offgraph.corpus import encode

    seqs = [encode(t, run.vocab, cfg.max_len) for t in run.split.test[:5]]
    run.model.load_state_arrays(run.best_state)
    assert np.allclose(loaded.model.predict(seqs, loaded.graph), run.model.predict(seqs, run.graph), atol=1e-12)
    assert loaded.graph.nodes == run.graph.nodes
    assert loaded.graph.out_neighbors == run.graph.out_neighbors
    assert np.array_equal(loaded.graph.features, run.graph.features)
    assert (loaded.graph.variant, loaded.graph.init_strategy) == (run.graph.variant, run.graph.init_strategy)


def test_checkpoint_is_json_with_shapes(tmp_path, corpus):
    run = fit(_tiny_config(max_epochs=1, early_stop_patience=1), corpus)
    path = tmp_path / "ckpt.json"
    save_checkpoint(run, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"config", "vocab", "graph", "params"}
    name, entry = next(iter(payload["params"].items()))
    assert np.prod(entry["shape"]) == len(entry["data"])

    payload["config"]["graph_variant"] = "dense"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="graph_variant 'dense'"):
        load_checkpoint(path)
