"""Training harness: protocol rules, determinism, leakage, sweeps."""

import base64
import json
import re
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from offgraph import resources, training
from offgraph.cli import main
from offgraph.corpus import Corpus, encode, split_corpus, write_tweets_jsonl
from offgraph.fusion import POOLINGS
from offgraph.graph import INIT_STRATEGIES, VARIANTS
from offgraph.metrics import metrics_report
from offgraph.model import ABLATIONS
from offgraph.preprocess import RawTweet
from offgraph.synthetic import generate_corpus
from offgraph.training import (
    ConfigError,
    EarlyStopper,
    TrainConfig,
    TrainingDiverged,
    _decode_param,
    _encode_param,
    fit,
    load_checkpoint,
    parse_config_file,
    run_grid,
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
    return TrainConfig(**base)


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
        TrainConfig(early_stop_patience=30)
    with pytest.raises(ValueError):
        TrainConfig(train_fraction=1.5)
    with pytest.raises(ValueError):
        TrainConfig(ablation="bogus")
    with pytest.raises(ValueError, match=r"pooling 'max'.*'mean', 'cls'"):
        TrainConfig(pooling="max")
    with pytest.raises(ValueError, match=r"graph_variant 'dense'.*'soft', 'hard', 'bow'"):
        TrainConfig(graph_variant="dense")
    with pytest.raises(ValueError, match=r"init_strategy 'zeros'.*'all0', 'all1', 'avg', 'nonoff'"):
        TrainConfig(init_strategy="zeros")
    with pytest.raises(ValueError, match=r"attention_dropout must be in \[0, 1\), got 1.0"):
        TrainConfig(attention_dropout=1.0)
    with pytest.raises(ValueError, match=r"hidden_dropout must be in \[0, 1\), got -0.1"):
        TrainConfig(hidden_dropout=-0.1)
    with pytest.raises(ValueError, match="fusion_heads 3 must divide d_model 64"):
        TrainConfig(fusion_heads=3)
    with pytest.raises(ValueError, match="encoder_heads 3 must divide d_model 64"):
        TrainConfig(encoder_heads=3)
    with pytest.raises(ValueError, match="gat_heads 3 must divide gat_hidden 64"):
        TrainConfig(gat_heads=3)
    for key, value, kind in [
        ("symmetric_neighbors", "false", "bool"), ("stratify_split", 1, "bool"),
        ("batch_size", "64", "int"), ("max_epochs", 20.0, "int"), ("seed", True, "int"),
        ("lr_gat", "0.01", "float"), ("focal_gamma", False, "float"), ("pooling", None, "str"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be of type {kind}, got {value!r}")) as info:
            TrainConfig(**{key: value})
        assert info.value.keys == (key,)
    TrainConfig(lr_gat=1, focal_gamma=np.float64(2.0), seed=np.int64(3))  # ints and numpy scalars pass
    TrainConfig(attention_dropout=0.0, hidden_dropout=0.0)
    TrainConfig(gat_heads=3, ablation="single_head_gat")  # one head takes all of gat_hidden
    for key, value, message in [
        ("lr_gat", float("nan"), "lr_gat must be finite, got nan"),
        ("lr_rest", float("inf"), "lr_rest must be finite, got inf"),
        ("focal_gamma", float("inf"), "focal_gamma must be finite, got inf"),
        ("focal_gamma", float("nan"), "focal_gamma must be finite, got nan"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as info:
            TrainConfig(**{key: value})
        assert info.value.keys == (key,)


def test_a_built_config_never_changes_and_every_replacement_is_checked():
    cfg = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.batch_size = 4
    with pytest.raises(ConfigError, match="gat_heads 3 must divide gat_hidden 64") as info:
        replace(cfg, gat_heads=3)
    assert info.value.keys == ("gat_heads", "gat_hidden", "ablation")
    assert cfg == TrainConfig()


def test_run_grid_rejects_a_bad_override_before_the_first_fit(monkeypatch, corpus):
    fits = []
    monkeypatch.setattr(training, "train", lambda config, corpus: fits.append(config))
    with pytest.raises(ConfigError, match="lr_gat must be positive"):
        run_grid(_tiny_config(), corpus, [{"seed": 1}, {"seed": 2}, {"lr_gat": 0.0}])
    assert fits == []


def test_config_file_roundtrip(tmp_path):
    cfg = _tiny_config(lr_rest=0.004, stratify_split=True, graph_variant="hard")
    path = tmp_path / "run.cfg"
    write_config_file(cfg, path)
    assert parse_config_file(path) == cfg


@st.composite
def _configs(draw):
    """Any valid TrainConfig: every field drawn, divisibility and patience rules met by construction."""
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    dropout = st.floats(0.0, 1.0, exclude_max=True)
    rate = st.floats(1e-12, 10.0)
    size = st.integers(1, 10**6)
    fusion_heads, encoder_heads, gat_heads = (draw(st.integers(1, 8)) for _ in range(3))
    max_epochs = draw(st.integers(1, 500))
    return TrainConfig(
        train_fraction=draw(unit), batch_size=draw(size), max_epochs=max_epochs,
        early_stop_patience=draw(st.integers(1, max_epochs)), lr_gat=draw(rate), lr_rest=draw(rate),
        focal_alpha=draw(unit), focal_gamma=draw(st.floats(0.0, 10.0)),
        init_strategy=draw(st.sampled_from(INIT_STRATEGIES)), graph_variant=draw(st.sampled_from(VARIANTS)),
        ablation=draw(st.sampled_from(ABLATIONS)), seed=draw(st.integers(0, 2**63)),
        stratify_split=draw(st.booleans()), symmetric_neighbors=draw(st.booleans()),
        gat_hidden=gat_heads * draw(st.integers(1, 64)), gat_heads=gat_heads,
        d_model=fusion_heads * encoder_heads * draw(st.integers(1, 16)),
        encoder_layers=draw(st.integers(1, 8)), encoder_heads=encoder_heads, d_ff=draw(size),
        max_len=draw(size), fusion_heads=fusion_heads, attention_dropout=draw(dropout),
        hidden_dropout=draw(dropout), pooling=draw(st.sampled_from(POOLINGS)),
        vocab_min_freq=draw(size), vocab_max_size=draw(size),
    )


@settings(max_examples=50)
@given(config=_configs(), previous=_configs())
def test_any_config_survives_a_file_round_trip_over_an_older_file(tmp_path_factory, config, previous):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    write_config_file(previous, path)  # the file is overwritten in place, whichever text is longer
    write_config_file(config, path)
    assert parse_config_file(path) == config


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


def test_config_file_names_the_line_of_a_bad_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batch_size = 8.0\n")
    with pytest.raises(ValueError, match=rf"{path}:1: bad int '8.0' for batch_size"):
        parse_config_file(path)
    path.write_text("# rates\nlr_gat = fast\n")
    with pytest.raises(ValueError, match=rf"{path}:2: bad float 'fast' for lr_gat"):
        parse_config_file(path)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# run\nbatch_size = 8\npooling = max\n", 3, "unknown pooling 'max'"),
        ("fusion_heads = 3\n", 1, "fusion_heads 3 must divide d_model 64"),
        ("seed = 1\nd_model = 30\n", 2, "fusion_heads 4 must divide d_model 30"),
        ("max_epochs = 3\nearly_stop_patience = 4\n", 2, "early_stop_patience cannot exceed max_epochs"),
        ("focal_alpha = 0.5\nfocal_gamma = -1\n", 2, "focal_gamma must be non-negative"),
        ("focal_alpha = 0.5\nfocal_gamma = inf\n", 2, "focal_gamma must be finite, got inf"),
        ("# rates\nlr_rest = 0.01\nlr_gat = nan\n", 3, "lr_gat must be finite, got nan"),
        ("seed = 3\nbatch_size = 8\nseed = 9\n", 3, "config key 'seed' set again (first on line 1)"),
    ],
)
def test_config_file_names_the_line_of_a_rejected_value(tmp_path, text, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
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


def test_fit_holds_one_training_steps_tape_at_a_time(corpus, monkeypatch):
    """A step starts at its author rows; its two forward halves may run at once, but no
    probabilities of an earlier step may still be alive when either starts."""
    steps = []  # per step, weakrefs to its probabilities, kept alive only by that step's tape
    user_embeddings = training.DetectionModel.user_embeddings
    forward_batch = training.DetectionModel.forward_batch

    def step_starts(self, graph, users=None, *, rng=None):
        steps.append([])
        return user_embeddings(self, graph, users, rng=rng)

    def watched(self, seqs, authors, *, rng=None, width=None):
        step = len(steps) - 1
        alive = [i for i, refs in enumerate(steps[:step]) if any(ref() is not None for ref in refs)]
        assert not alive, f"steps {alive} still hold their tape when step {step} runs"
        probs = forward_batch(self, seqs, authors, rng=rng, width=width)
        if probs.requires_grad:
            steps[step].append(weakref.ref(probs.data))
        return probs

    monkeypatch.setattr(training.DetectionModel, "user_embeddings", step_starts)
    monkeypatch.setattr(training.DetectionModel, "forward_batch", watched)
    fit(_tiny_config(max_epochs=1, early_stop_patience=1), corpus)  # predict's forward checks the last step
    assert sum(len(refs) == 2 for refs in steps) > 1


def test_fit_is_the_same_at_one_worker_and_at_two(corpus, monkeypatch):
    """One worker runs a step's forward halves in order on this thread; two run them at once."""
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(resources, "scoring_workers", lambda: workers)
        run = fit(_tiny_config(hidden_dropout=0.2), corpus)
        runs.append((run.result.to_json().encode(), run.model.state_arrays(), run.best_state))
    (json_1, state_1, best_1), (json_2, state_2, best_2) = runs
    assert json_1 == json_2
    for name in state_1:
        assert state_1[name].tobytes() == state_2[name].tobytes(), name
        assert best_1[name].tobytes() == best_2[name].tobytes(), name


def test_fit_returns_a_model_that_holds_no_gradients(corpus):
    params = fit(_tiny_config(max_epochs=1, early_stop_patience=1), corpus).model.named_parameters()
    assert params
    assert [name for name, p in params.items() if p.grad is not None] == []


def test_divergence_aborts(corpus):
    # a step this large overflows float64 activations into inf/nan
    cfg = _tiny_config(lr_rest=1e160, lr_gat=1e160, max_epochs=3, early_stop_patience=3)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train(cfg, corpus)


# -- experiment grids -------------------------------------------------------------


def test_run_grid_is_one_train_per_override_in_order(corpus):
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1)
    overrides = [{"seed": 3}, {"ablation": "no_gat", "seed": 1}, {"graph_variant": "hard"}]
    grid = run_grid(cfg, corpus, overrides)
    assert [r.seed for r in grid] == [3, 1, cfg.seed]
    assert [r.to_json().encode() for r in grid] == [train(replace(cfg, **o), corpus).to_json().encode() for o in overrides]


def test_ablate_rejects_unknown(corpus):
    with pytest.raises(ValueError, match=r"unknown ablation 'nope'; expected one of \('full', "):
        run_grid(_tiny_config(), corpus, [{"ablation": "nope"}])


def test_ablation_table_has_six_rows(corpus):
    cfg = _tiny_config(max_epochs=1, early_stop_patience=1)
    results = run_grid(cfg, corpus, [{"ablation": v} for v in ABLATIONS])
    assert [r.config["ablation"] for r in results] == [
        "full", "no_gat", "no_encoder", "no_gat_residual", "single_head_gat", "no_attention_layer",
    ]
    assert all(0.0 <= r.best_metrics.f1 <= 1.0 for r in results)


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


# -- seed scans -----------------------------------------------------------------


@pytest.mark.slow
def test_replicate_ten_runs_are_stable():
    # calibrated once at this exact setting: every seed in the scan
    # transitions within the epoch budget, so F1 varies only mildly across runs
    corpus = generate_corpus(400, 50, seed=9)
    cfg = TrainConfig(
        max_epochs=20, early_stop_patience=14, batch_size=64,
        lr_rest=1e-2, attention_dropout=0.1,
        gat_hidden=16, gat_heads=4, d_model=32, encoder_layers=1,
        encoder_heads=4, d_ff=64, max_len=32, fusion_heads=2, seed=100,
        stratify_split=True,
    )
    runs = run_grid(cfg, corpus, [{"seed": 100 + i} for i in range(10)])
    f1 = np.array([r.best_metrics.f1 for r in runs])
    assert len(f1) == 10
    assert f1.std() < 0.05
    assert f1.mean() > 0.9


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
    with pytest.raises(ValueError, match=r"axis 'bogus'; expected one of \('train_fraction', 'init', 'variant'\)"):
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
    assert np.array_equal(loaded.graph.arcs, run.graph.arcs)
    assert np.array_equal(loaded.graph.features, run.graph.features)
    assert (loaded.graph.variant, loaded.graph.init_strategy) == (run.graph.variant, run.graph.init_strategy)


@pytest.fixture(scope="module")
def tiny_run(corpus):
    return fit(_tiny_config(), corpus)


def test_loading_best_state_scores_the_test_split_as_best_metrics(corpus):
    """``fit`` leaves ``run.model`` at its last epoch: the label-flip leakage proof compares last-epoch
    parameters. The best epoch's report comes back once ``best_state`` is loaded."""
    run = fit(_tiny_config(max_epochs=3), corpus)
    assert run.result.best_epoch < run.result.epochs_run
    seqs = [encode(t, run.vocab, run.result.config["max_len"]) for t in run.split.test]
    labels = [t.label for t in run.split.test]
    assert metrics_report(run.model.predict(seqs, run.graph), labels) != run.result.best_metrics
    run.model.load_state_arrays(run.best_state)
    assert metrics_report(run.model.predict(seqs, run.graph), labels) == run.result.best_metrics


def test_load_checkpoint_builds_its_model_without_drawing(tmp_path, tiny_run, monkeypatch):
    seen = []

    class Recorder(training.DetectionModel):
        def __init__(self, config, vocab_size, feature_dim, rng):
            seen.append(rng)
            super().__init__(config, vocab_size, feature_dim, rng)

    path = tmp_path / "ckpt.json"
    save_checkpoint(tiny_run, path)
    monkeypatch.setattr(training, "DetectionModel", Recorder)
    loaded = load_checkpoint(path)
    assert len(seen) == 1 and seen[0] is None
    seqs = [encode(t, tiny_run.vocab, tiny_run.result.config["max_len"]) for t in tiny_run.split.test]
    tiny_run.model.load_state_arrays(tiny_run.best_state)
    assert np.array_equal(loaded.model.predict(seqs, loaded.graph), tiny_run.model.predict(seqs, tiny_run.graph))


@settings(max_examples=8)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_a_checkpoint_survives_save_and_load_with_equal_predict(tmp_path_factory, tiny_run, seeds, scale):
    """Random parameters saved over a longer file, then over an older checkpoint, load back exactly."""
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    path.write_text(" " * 200_000)  # longer than the checkpoint, so the writer must cut it
    seqs = [encode(t, tiny_run.vocab, tiny_run.result.config["max_len"]) for t in tiny_run.split.test[:8]]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        state = {name: rng.normal(0.0, scale, value.shape) for name, value in tiny_run.best_state.items()}
        save_checkpoint(replace(tiny_run, best_state=state), path)
    loaded = load_checkpoint(path)
    tiny_run.model.load_state_arrays(state)
    np.testing.assert_array_equal(loaded.model.predict(seqs, loaded.graph), tiny_run.model.predict(seqs, tiny_run.graph))


@settings(max_examples=60)
@given(
    value=hnp.arrays(
        st.sampled_from([np.dtype("<f8"), np.dtype(">f8")]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ),
    transpose=st.booleans(),
)
@example(value=np.array([-0.0, 0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf, np.nan]), transpose=False)
@example(value=np.array(-0.0), transpose=False)
@example(value=np.zeros((0, 3)), transpose=True)
def test_format_2_encoding_is_bit_exact(value, transpose):
    """Every float64 bit pattern, of any shape and memory layout, decodes to itself."""
    if transpose:
        value = value.T  # not C-contiguous for two or more dims
    entry = json.loads(json.dumps(_encode_param(value)))
    assert len(base64.b64decode(entry["data"], validate=True)) == 8 * value.size
    back = _decode_param(entry, 2)
    assert back.shape == value.shape and back.dtype == np.float64 and back.flags.writeable
    want = value.astype(np.float64)
    assert np.array_equal(back.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(back, want, equal_nan=True)


def _as_format_1(payload):
    """The same checkpoint as format 1 writes it: no ``format`` key, each ``data`` a flat float list."""
    params = {name: {**entry, "data": _decode_param(entry, 2).reshape(-1).tolist()}
              for name, entry in payload["params"].items()}
    return {**{k: v for k, v in payload.items() if k != "format"}, "params": params}


def test_a_format_1_checkpoint_loads_to_equal_predict_and_eval_report(tmp_path, corpus, tiny_run):
    new, old = tmp_path / "ckpt.json", tmp_path / "ckpt_format1.json"
    save_checkpoint(tiny_run, new)
    payload = json.loads(new.read_text())
    assert payload["format"] == 2
    old.write_text(json.dumps(_as_format_1(payload), indent=2))
    seqs = [encode(t, tiny_run.vocab, tiny_run.result.config["max_len"]) for t in tiny_run.split.test]
    loaded = [load_checkpoint(path) for path in (new, old)]
    assert np.array_equal(*(c.model.predict(seqs, c.graph) for c in loaded))

    tweets = tmp_path / "tweets.jsonl"
    write_tweets_jsonl(corpus.tweets, tweets)
    reports = []
    for path in (new, old):
        report = tmp_path / f"{path.stem}_eval.json"
        assert main(["eval", "--checkpoint", str(path), "--tweets", str(tweets), "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]

    name = next(iter(payload["params"]))
    as_string = _as_format_1(payload)
    as_string["params"][name]["data"] = payload["params"][name]["data"]
    old.write_text(json.dumps(as_string))
    with pytest.raises(ValueError, match=f"^{re.escape(str(old))}: checkpoint parameter '{name}' has a malformed"):
        load_checkpoint(old)


def test_a_checkpoint_with_separate_qkv_names_loads_to_equal_predict(tmp_path, tiny_run):
    """Files written before the packed layout name Q, K and V apart (in format 1); they fold back into
    wqkv/bqkv."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(tiny_run, path)
    payload = _as_format_1(json.loads(path.read_text()))
    seqs = [encode(t, tiny_run.vocab, tiny_run.result.config["max_len"]) for t in tiny_run.split.test[:8]]
    packed = load_checkpoint(path)
    want = packed.model.predict(seqs, packed.graph)
    legacy = {}
    for name, entry in payload["params"].items():
        if not name.endswith("qkv"):
            legacy[name] = entry
            continue
        value = np.asarray(entry["data"]).reshape(entry["shape"])
        for part, third in zip("qkv", np.split(value, 3, axis=-1)):
            legacy[name[:-3] + part] = {"shape": list(third.shape), "data": third.reshape(-1).tolist()}
    assert {"encoder.block0.wq", "encoder.block0.bv", "fusion.wk"} <= set(legacy)
    assert not any(name.endswith("qkv") for name in legacy)

    path.write_text(json.dumps({**payload, "params": legacy}))
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.model.predict(seqs, loaded.graph), want)

    lone_wq = {k: v for k, v in legacy.items() if k not in ("fusion.wk", "fusion.wv")}
    path.write_text(json.dumps({**payload, "params": lone_wq}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint parameters do not match the model"):
        load_checkpoint(path)


def test_checkpoint_is_json_with_shapes(tmp_path, corpus):
    run = fit(_tiny_config(max_epochs=1, early_stop_patience=1), corpus)
    path = tmp_path / "ckpt.json"
    save_checkpoint(run, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"format", "config", "vocab", "graph", "params"}
    assert payload["format"] == 2
    name, entry = next(iter(payload["params"].items()))
    size = int(np.prod(entry["shape"]))
    assert 8 * size == len(base64.b64decode(entry["data"], validate=True))

    payload["config"]["graph_variant"] = "dense"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="graph_variant 'dense'"):
        load_checkpoint(path)
    payload["config"]["graph_variant"] = "soft"
    for key, value in (("symmetric_neighbors", "false"), ("batch_size", "64")):
        path.write_text(json.dumps({**payload, "config": {**payload["config"], key: value}}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {key} must be of type"):
            load_checkpoint(path)
    no_nodes = {k: v for k, v in payload["graph"].items() if k != "nodes"}
    nodes, features = payload["graph"]["nodes"], payload["graph"]["features"]
    letters = [chr(0x4E00 + i) for i in range(len(nodes))]  # one-character names, so "ab" could read as a pair
    malformed = (  # each must surface as a ValueError naming the file, never a TypeError from deep inside
        ("config", ["seed"], "the checkpoint config is not an object"),
        ("graph", no_nodes, "the checkpoint graph has no 'nodes' key"),
        ("params", {**payload["params"], name: {"shape": entry["shape"]}}, f"checkpoint parameter '{name}' has no 'data' key"),
        ("graph", [], "the checkpoint graph is not an object"),
        ("params", [], "the checkpoint params is not an object"),
        ("params", {**payload["params"], name: [1, 2]}, f"checkpoint parameter '{name}' is not an object"),
        ("vocab", 5, "the checkpoint vocab is not a list"),
        ("vocab", ["a"], "the checkpoint vocab is malformed ("),
        ("vocab", [*payload["vocab"], ["x"]], "the checkpoint vocab is malformed ("),
        ("vocab", [*payload["vocab"], 5], "the checkpoint vocab is malformed ("),
        ("vocab", [*payload["vocab"], None], "the checkpoint vocab is malformed ("),
        ("graph", {**payload["graph"], "nodes": 5}, "the checkpoint graph is malformed ("),
        ("graph", {**payload["graph"], "features": payload["graph"]["features"][:3]}, "the checkpoint graph is malformed ("),
        ("graph", {**payload["graph"], "features": 3}, "the checkpoint graph is malformed ("),
        ("graph", {**payload["graph"], "nodes": [*nodes, nodes[0]], "features": [*features, features[0]]},
         f"the checkpoint graph is malformed (node names must be distinct, got {len(nodes) + 1} names for {len(nodes)} users)"),
        ("graph", {**payload["graph"], "edges": [[payload["graph"]["nodes"][0], "ghost"]]},
         "the checkpoint graph is malformed (an edge names user 'ghost', who is not a node of the graph)"),
        ("graph", {**payload["graph"], "nodes": list(range(len(nodes))), "edges": []},
         "the checkpoint graph is malformed (the nodes must be a list of strings)"),
        ("graph", {**payload["graph"], "nodes": "".join(letters), "edges": []},
         "the checkpoint graph is malformed (the nodes must be a list of strings)"),
        ("graph", {**payload["graph"], "nodes": letters, "edges": [letters[0] + letters[1]]},
         "the checkpoint graph is malformed (every edge must be a [follower, followee] list of two strings)"),
        ("graph", {**payload["graph"], "edges": [[nodes[0], 5]]},
         "the checkpoint graph is malformed (every edge must be a [follower, followee] list of two strings)"),
        ("graph", {**payload["graph"], "variant": "dense"},
         "the checkpoint graph is malformed (unknown graph variant 'dense'; expected one of ('soft', 'hard', 'bow', 'none'))"),
        ("graph", {**payload["graph"], "init_strategy": None},
         "the checkpoint graph is malformed (unknown init strategy None; "
         "expected one of ('all0', 'all1', 'avg', 'nonoff', 'none'))"),
        ("params", {**payload["params"], name: {**entry, "shape": "x"}},
         f"checkpoint parameter '{name}' has a malformed shape or data ("),
        *(
            ("params", {**payload["params"], name: {**entry, "data": data}},
             f"checkpoint parameter '{name}' has a malformed shape or data (")
            for data in (
                "not base64!",  # '!' and ' ' are outside the base64 alphabet
                entry["data"][:-4],  # drops the last base64 quantum (1-3 bytes), cutting a float
                base64.b64encode(bytes(8 * (size - 1))).decode(),  # whole floats, one too few
                base64.b64encode(bytes(8 * size + 8)).decode(),  # whole floats, one too many
                [0.0] * size,  # the format-1 list in a format-2 file
            )
        ),
        ("format", 3, "unsupported checkpoint format 3 (expected 1 or 2)"),
        ("format", "2", "unsupported checkpoint format '2' (expected 1 or 2)"),
    )
    for key, value, message in malformed:
        path.write_text(json.dumps({**payload, key: value}))
        tail = "" if message.endswith("(") else "$"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}{tail}"):
            load_checkpoint(path)
    payload["graph"]["features"] = None
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="no node features"):
        load_checkpoint(path)
