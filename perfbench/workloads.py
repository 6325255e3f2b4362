"""The benchmark's workloads: generated inputs, measured rounds and checks.

A run repeats whole rounds of one workload until its time is used up and
reports medians over them:

* a train round loads the generated files with ``load_corpus`` and calls
  ``training.fit`` for a fixed number of epochs (patience never cuts it
  short). Set-up is everything before fit asks for the first epoch's
  batches; ``wall_s`` is the training loop after that, per-epoch test
  scoring included;
* an eval round runs ``offgraph eval`` in process (``cli.main``): loading
  the checkpoint, reading, preprocessing and encoding the tweets is set-up,
  and ``wall_s`` runs from the start of ``predict`` until the report is
  written.

With tracing off three program entry points carry a span, called a few times
per epoch: fit's request for batches (the end of set-up), the loss (once per
training step) and ``predict``. The traced run wraps the entry points of
every layer as well (``LAYER_PATCHES``).
"""

from __future__ import annotations

import ctypes
import gc
import importlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import offgraph
from offgraph import cli, encoder, fusion, gat, graph, model, optim, tensor, training

import oracles
from oracles import CheckFailed, close, require
from tracer import Tracer

preprocessing = importlib.import_module("offgraph.preprocess")  # the package re-exports a function of that name

# The acceptance suite's E2E_CONFIG (tests/test_acceptance.py), the paper's setting.
E2E_CONFIG = training.TrainConfig(
    seed=7,
    max_epochs=20,
    early_stop_patience=5,
    batch_size=64,
    lr_gat=1e-2,
    lr_rest=1e-2,
    attention_dropout=0.1,
    max_len=32,
)

SETUP_REPS = 3  # set-up-only repetitions per run, on top of each round's own set-up
MIN_ROUNDS = 2  # measured rounds per untraced run, even if the second overruns --seconds
OFFENSIVE_SHARE = (0.05, 0.12)  # the planted generator's offensive share (about 8 %)
SAMPLE_STRIDE = 10  # every 10th eval tweet is also scored by the model that saved the checkpoint
SINGLE_STRIDE = 200  # every 200th eval tweet is also scored on its own


@dataclass(frozen=True)
class Spec:
    kind: str  # "train" or "eval"
    tweets: int  # tweets of the corpus the model trains on
    users: int
    epochs: int  # epochs per train round; for eval, of the fit that makes the checkpoint
    arcs_per_user: tuple[float, float]
    silent_users: tuple[int, int]
    eval_tweets: int = 0  # tweets scored per eval round


WORKLOADS = {
    "train-planted": Spec("train", 1000, 100, 2, (4.5, 6.5), (8, 15)),
    "train-wide-graph": Spec("train", 400, 10000, 1, (4.5, 6.5), (9400, 9800)),
    "eval-checkpoint": Spec("eval", 1000, 100, 1, (4.5, 6.5), (8, 15), eval_tweets=1000),
}

# The same workloads at a size that runs in seconds, for --self-test.
TINY = {
    "train-planted": Spec("train", 200, 40, 2, (3.0, 6.5), (3, 12)),
    "train-wide-graph": Spec("train", 200, 1000, 1, (4.5, 6.5), (800, 900)),
    "eval-checkpoint": Spec("eval", 200, 40, 1, (3.0, 6.5), (3, 12), eval_tweets=400),
}

# Entry points, as (owner, attribute, span). Names are patched in the module
# that looks them up: fit's in ``training``, the model's in ``model``, the
# eval command's in ``cli``.
E2E_PATCHES = (
    (training, "batches", "fit.epochs"),
    (training, "focal_loss_tensor", "losses.s"),
    (model.DetectionModel, "predict", "model.predict_s"),
)
LAYER_PATCHES = (
    (training, "preprocess_corpus", "preprocess.s"),
    (preprocessing, "preprocess", "preprocess.s"),
    (training, "split_corpus", "corpus.s"),
    (training, "build_vocab", "corpus.s"),
    (training, "encode", "corpus.s"),
    (cli, "encode", "corpus.s"),
    (training, "build_graph", "graph.build_s"),
    (training, "with_node_features", "graph.build_s"),
    (training, "mask_test_information", "graph.build_s"),
    (model.DetectionModel, "__init__", "model.init_s"),
    (cli, "load_checkpoint", "training.checkpoint_load_s"),
    (model, "gat_forward", "gat.forward_s"),
    (graph.SocialGraph, "edge_arrays", "graph.edge_arrays_s"),
    (model, "encode", "encoder.forward_s"),
    (encoder, "multi_head_attention", "attention.s"),
    (fusion, "multi_head_attention", "attention.s"),
    (model, "assemble", "fusion.forward_s"),
    (model, "add_position_encoding", "fusion.forward_s"),
    (model, "fuse_attention", "fusion.forward_s"),
    (model, "classify", "fusion.forward_s"),
    (tensor.Tensor, "backward", "tensor.backward_s"),
    (optim.Adam, "step", "optim.adam_s"),
    (training, "metrics_report", "metrics.s"),
    (cli, "metrics_report", "metrics.s"),
)
LAYER_TIMES = (
    "preprocess.s", "corpus.load_s", "corpus.s", "graph.build_s", "model.init_s",
    "training.checkpoint_load_s", "gat.forward_s", "graph.edge_arrays_s", "encoder.forward_s",
    "attention.s", "fusion.forward_s", "losses.s", "tensor.backward_s", "optim.adam_s",
    "model.predict_s", "metrics.s",
)
LAYER_CALLS = {"gat.calls": "gat.forward_s", "graph.edge_arrays_calls": "graph.edge_arrays_s"}

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h


def _keep_heap() -> None:
    """Keep freed memory in the process (glibc). On a virtual machine whose
    host takes freed pages back within seconds, a page faults in several
    times slower than one touched a moment ago, so without this a round's
    time depends on how long ago the last round freed its memory."""
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        libc.mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)


def _patched(tracer: Tracer, patches) -> Tracer:
    for owner, attr, name in patches:
        tracer.patch(owner, attr, name)
    return tracer


class _SetupDone(Exception):
    pass


def _setup_seconds(owner, attr: str, call) -> float:
    """Seconds ``call()`` takes to reach ``owner.attr``, its first operation."""

    def stop(*args, **kwargs):
        raise _SetupDone

    current = getattr(owner, attr)
    setattr(owner, attr, stop)
    gc.collect()
    start = time.perf_counter()
    try:
        call()
    except _SetupDone:
        return time.perf_counter() - start
    finally:
        setattr(owner, attr, current)
    raise RuntimeError(f"{attr} was never reached")


# -- inputs --------------------------------------------------------------


@dataclass
class Inputs:
    corpus: offgraph.Corpus
    tweets_path: Path
    edges_path: Path
    eval_corpus: offgraph.Corpus | None = None
    eval_path: Path | None = None
    checkpoint_path: Path | None = None
    report_path: Path | None = None


def make_inputs(spec: Spec, seed: int, workdir: Path) -> Inputs:
    """Write the workload's files from ``seed``; the program only sees the files."""
    corpus = offgraph.generate_corpus(spec.tweets, spec.users, seed=seed)
    inputs = Inputs(corpus, workdir / "tweets.jsonl", workdir / "edges.tsv")
    offgraph.write_tweets_jsonl(corpus.tweets, inputs.tweets_path)
    offgraph.write_edges_tsv(corpus.edges, inputs.edges_path)
    if spec.kind == "eval":
        # A larger draw with the same seed: the same users, communities and
        # word banks, fresh tweets. Its last ``eval_tweets`` are scored.
        extra = offgraph.generate_corpus(spec.tweets + spec.eval_tweets, spec.users, seed=seed)
        inputs.eval_corpus = offgraph.Corpus(extra.tweets[spec.tweets :], extra.edges, extra.users)
        inputs.eval_path = workdir / "eval.jsonl"
        inputs.checkpoint_path = workdir / "checkpoint.json"
        inputs.report_path = workdir / "report.json"
        offgraph.write_tweets_jsonl(inputs.eval_corpus.tweets, inputs.eval_path)
    return inputs


def _check_makeup(spec: Spec, corpus, want_tweets: int) -> dict:
    got = oracles.makeup(corpus.tweets, corpus.edges, corpus.users)
    require(got["tweets"] == want_tweets, f"generated {got['tweets']} tweets, want {want_tweets}")
    require(got["users"] == spec.users, f"generated {got['users']} users, want {spec.users}")
    low, high = spec.arcs_per_user
    require(low * spec.users <= got["arcs"] <= high * spec.users, f"generated {got['arcs']} follow arcs")
    low, high = OFFENSIVE_SHARE
    require(low <= got["offensive_share"] <= high, f"offensive share {got['offensive_share']:.3f}")
    low, high = spec.silent_users
    require(low <= got["silent_users"] <= high, f"{got['silent_users']} silent users")
    return got


# -- rounds --------------------------------------------------------------


@dataclass
class Round:
    since: int  # first span of the round in its tracer
    start: float
    loop: float  # end of set-up
    end: float
    attempted: int
    failed: int
    train_tweets: int = 0  # tweets x epochs trained
    scored: int = 0  # tweets scored by predict
    predict_s: float = 0.0
    artifacts: object = None

    @property
    def setup_s(self) -> float:
        return self.loop - self.start

    @property
    def wall_s(self) -> float:
        return self.end - self.loop


def train_config(spec: Spec) -> training.TrainConfig:
    return replace(E2E_CONFIG, max_epochs=spec.epochs, early_stop_patience=spec.epochs)


def _fit(inputs: Inputs, config: training.TrainConfig):
    return training.fit(config, offgraph.load_corpus(inputs.tweets_path, inputs.edges_path))


def train_round(inputs: Inputs, config: training.TrainConfig, tracer: Tracer) -> Round:
    gc.collect()
    since = tracer.mark()
    start = time.perf_counter()
    with tracer.span("corpus.load_s"):
        corpus = offgraph.load_corpus(inputs.tweets_path, inputs.edges_path)
    try:
        run = training.fit(config, corpus)
    except training.TrainingDiverged:
        run = None
    end = time.perf_counter()
    loop = tracer.first_start("fit.epochs", since)
    if loop is None:
        raise RuntimeError("fit never asked for batches")
    spans = tracer.summary(since)
    steps = spans["losses.s"]["calls"]
    if run is None:
        return Round(since, start, loop, end, attempted=steps, failed=1)
    predict = spans["model.predict_s"]
    return Round(
        since, start, loop, end, attempted=steps, failed=0,
        train_tweets=len(run.split.train) * run.result.epochs_run,
        scored=len(run.split.test) * predict["calls"],
        predict_s=predict["inclusive_s"],
        artifacts=run,
    )


def _eval_command(inputs: Inputs) -> None:
    status = cli.main([
        "eval", "--checkpoint", str(inputs.checkpoint_path),
        "--tweets", str(inputs.eval_path), "--out", str(inputs.report_path),
    ])
    if status != 0:
        raise RuntimeError(f"offgraph eval exited with {status}")


def eval_round(inputs: Inputs, tracer: Tracer) -> Round:
    scored = []
    current = model.DetectionModel.predict

    def keep_scores(self, *args, **kwargs):
        scored.append(current(self, *args, **kwargs))
        return scored[-1]

    model.DetectionModel.predict = keep_scores
    gc.collect()
    since = tracer.mark()
    start = time.perf_counter()
    try:
        _eval_command(inputs)
    finally:
        model.DetectionModel.predict = current
    end = time.perf_counter()
    loop = tracer.first_start("model.predict_s", since)
    predict = tracer.summary(since)["model.predict_s"]
    scores = scored[0]
    bad = int(np.count_nonzero(~((scores >= 0.0) & (scores <= 1.0))))
    report = json.loads(inputs.report_path.read_text(encoding="utf-8"))
    return Round(
        since, start, loop, end, attempted=len(scores), failed=bad,
        scored=len(scores), predict_s=predict["inclusive_s"], artifacts=(scores, report),
    )


# -- the eval workload's checkpoint ---------------------------------------


@dataclass
class Made:
    fit_round: Round
    sample_scores: np.ndarray  # the saving model's own scores for every SAMPLE_STRIDE-th eval tweet


def _eval_seqs(tweets, vocab, max_len: int) -> list:
    return [offgraph.encode(offgraph.preprocess(t), vocab, max_len) for t in tweets]


def make_checkpoint(spec: Spec, inputs: Inputs) -> Made:
    """Fit with the code under test, save its best epoch, and keep the saving
    model's in-memory scores for a sample of the eval tweets."""
    tracer = _patched(Tracer(), E2E_PATCHES)
    try:
        fitted = train_round(inputs, train_config(spec), tracer)
    finally:
        tracer.restore()
    run = fitted.artifacts
    if run is None:
        raise RuntimeError("the fit that makes the checkpoint diverged")
    run.model.load_state_arrays(run.best_state)
    training.save_checkpoint(run, inputs.checkpoint_path)
    seqs = _eval_seqs(inputs.eval_corpus.tweets[::SAMPLE_STRIDE], run.vocab, run.result.config["max_len"])
    return Made(fitted, run.model.predict(seqs, run.graph))


# -- measurement ---------------------------------------------------------


def _rounds(one_round, tracer: Tracer, deadline: float, at_least: int) -> list[Round]:
    """``at_least`` whole rounds, then more while the next one, as long as the
    last, ends by the deadline."""
    rounds = [one_round(tracer) for _ in range(at_least)]
    while time.perf_counter() + rounds[-1].end - rounds[-1].start <= deadline:
        rounds.append(one_round(tracer))
    return rounds


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    _keep_heap()
    inputs = make_inputs(spec, seed, workdir)
    made = None
    if spec.kind == "train":
        config = train_config(spec)

        def setup_once():
            return _setup_seconds(training, "batches", lambda: _fit(inputs, config))

        def one_round(tracer):
            return train_round(inputs, config, tracer)

        def warm_up(tracer):
            train_round(inputs, replace(config, max_epochs=1, early_stop_patience=1), tracer)

    else:
        made = make_checkpoint(spec, inputs)

        def setup_once():
            return _setup_seconds(model.DetectionModel, "predict", lambda: _eval_command(inputs))

        def one_round(tracer):
            return eval_round(inputs, tracer)

        warm_up = one_round

    plain = _patched(Tracer(), E2E_PATCHES)
    try:
        # Untimed: first calls, and a first touch of the memory a round needs.
        warm_up(plain)
        start = time.perf_counter()
        if trace:
            setups = []
            rounds = [one_round(plain)]
        else:
            setups = [setup_once() for _ in range(SETUP_REPS)]
            rounds = _rounds(one_round, plain, start + seconds, MIN_ROUNDS)
    finally:
        plain.restore()
    traced_rounds = []
    if trace:
        traced = _patched(Tracer(), E2E_PATCHES + LAYER_PATCHES)
        try:
            traced_rounds = _rounds(one_round, traced, start + seconds, 1)
        finally:
            traced.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured = rounds + traced_rounds

    try:
        checks, failure = check(spec, inputs, made, measured), None
    except CheckFailed as exc:
        checks, failure = [], str(exc)
    ok = [r for r in rounds if not r.failed]
    if not ok:
        raise RuntimeError("every measured round failed")
    if trace:
        metrics = layer_metrics(traced, traced_rounds, ok)
    else:
        fit_rounds = ok if spec.kind == "train" else [made.fit_round]
        metrics = {
            "setup_s": (_median(setups + [r.setup_s for r in rounds]), "s"),
            "wall_s": (_median(r.wall_s for r in ok), "s"),
            "train_tweets_per_s": (
                _median(r.train_tweets / (r.wall_s - r.predict_s) for r in fit_rounds), "tweets/s"),
            "eval_tweets_per_s": (_median(r.scored / r.predict_s for r in ok), "tweets/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": failure is None,
        "attempted": sum(r.attempted for r in measured),
        "failed": sum(r.failed for r in measured),
        "metrics": metrics,
        "detail": {
            "checks": checks,
            "check_failed": failure,
            "setup_samples_s": setups,
            "rounds": [_round_detail(r) for r in rounds],
            "traced_rounds": [_round_detail(r) for r in traced_rounds],
        },
    }


def _round_detail(r: Round) -> dict:
    return {"setup_s": r.setup_s, "wall_s": r.wall_s, "predict_s": r.predict_s,
            "attempted": r.attempted, "failed": r.failed}


def layer_metrics(tracer: Tracer, rounds: list[Round], plain_rounds: list[Round]) -> dict:
    """Per-layer self times and calls, per traced round; the tracing overhead."""
    totals = tracer.summary(rounds[0].since)
    n = len(rounds)
    out = {}
    for name in LAYER_TIMES:
        out[name] = (totals.get(name, {"self_s": 0.0})["self_s"] / n, "s")
    for name, span in LAYER_CALLS.items():
        out[name] = (totals.get(span, {"calls": 0})["calls"] / n, "count")
    traced_wall = _median(r.wall_s for r in rounds)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - _median(r.wall_s for r in plain_rounds), "s")
    out["trace.coverage"] = (
        _median(tracer.covered(r.since, r.loop, r.end) / r.wall_s for r in rounds), "ratio")
    return out


# -- correctness ---------------------------------------------------------


def check(spec: Spec, inputs: Inputs, made: Made | None, rounds: list[Round]) -> list[str]:
    """Run every check on the run's inputs and outputs; returns what was checked."""
    done = [f"inputs: {_check_makeup(spec, inputs.corpus, spec.tweets)}"]
    if spec.kind == "eval":
        done.append(f"eval tweets: {_check_makeup(spec, inputs.eval_corpus, spec.eval_tweets)}")
    finished = [r for r in rounds if not r.failed]
    require(bool(finished), "no round finished")
    if spec.kind == "train":
        for r in finished:
            losses = r.artifacts.result.train_loss
            require(r.artifacts.result.epochs_run == spec.epochs, "patience cut the fit short")
            require(all(math.isfinite(x) for x in losses), f"non-finite epoch loss {losses}")
        done.append("epoch losses finite, every round")
        done += check_fit(inputs, finished[-1].artifacts)
    else:
        done += check_fit(inputs, made.fit_round.artifacts)
        done += check_eval(inputs, made, finished[-1])
    return done


def check_fit(inputs: Inputs, run) -> list[str]:
    corpus = inputs.corpus
    ids = [t.tweet_id for t in corpus.tweets]
    train_ids = [t.tweet_id for t in run.split.train]
    test_ids = [t.tweet_id for t in run.split.test]
    require(sorted(train_ids + test_ids) == sorted(ids), "the split does not partition the tweets")
    require(len(test_ids) == int(len(ids) * (1.0 - E2E_CONFIG.train_fraction)), "wrong test split size")

    nodes = sorted(corpus.users)
    require(run.graph.nodes == nodes, "graph nodes are not the corpus users")
    features = oracles.soft_features(nodes, run.split.train)
    close("masked graph features", run.graph.features, features, 0.0)
    src, dst = oracles.attention_arcs(nodes, corpus.edges)
    got_src, got_dst = run.graph.edge_arrays()
    require(np.array_equal(got_src, src) and np.array_equal(got_dst, dst), "attention arcs differ")

    # rescore the test split with the best epoch's parameters
    run.model.load_state_arrays(run.best_state)
    seqs = [offgraph.encode(t, run.vocab, run.result.config["max_len"]) for t in run.split.test]
    scores = run.model.predict(seqs, run.graph)
    want = oracles.metrics(scores, [t.label for t in run.split.test])
    best = run.result.best_metrics
    require(best.confusion.to_dict() == want["confusion"], "best-epoch confusion counts differ")
    close("best-epoch macro-F1", best.f1, want["f1"], 1e-12)
    close("best-epoch AUC", best.auc, want["auc"], 1e-12)
    done = ["split, masked features and arcs", "best epoch rescored: confusion, macro-F1, AUC"]

    params = run.model.named_parameters()
    heads = []
    while f"gat.head{len(heads)}.proj" in params:
        k = len(heads)
        heads.append((params[f"gat.head{k}.proj"].data, params[f"gat.head{k}.attn"].data))
    residual = params["gat.residual.proj"].data
    want_emb, want_alpha = oracles.gat(features, src, dst, heads, residual)
    close("user embeddings vs numpy GAT", run.model.user_embeddings(run.graph).data, want_emb, 1e-10)
    for k, (w, a) in enumerate(heads):
        projected = tensor.matmul(tensor.Tensor(features), tensor.Tensor(w))
        alpha = gat.attention_coefficients(projected, src, dst, tensor.Tensor(a), len(nodes)).data
        close(f"head {k} attention weights", alpha, want_alpha[k], 1e-10)
        close(f"head {k} weights per node", np.bincount(src, weights=alpha), np.ones(len(nodes)), 1e-12)
    done.append("user embeddings and attention weights vs numpy GAT")
    return done


def check_eval(inputs: Inputs, made: Made, last: Round) -> list[str]:
    scores, report = last.artifacts
    tweets = inputs.eval_corpus.tweets
    require(len(scores) == len(tweets), f"{len(scores)} scores for {len(tweets)} tweets")
    close("loaded vs saving model's scores", scores[::SAMPLE_STRIDE], made.sample_scores, 1e-12)
    checkpoint = training.load_checkpoint(inputs.checkpoint_path)
    alone = tweets[::SINGLE_STRIDE]
    seqs = _eval_seqs(alone, checkpoint.vocab, checkpoint.config.max_len)
    for i, seq in enumerate(seqs):
        close(f"tweet {i * SINGLE_STRIDE} scored alone", checkpoint.model.predict([seq], checkpoint.graph),
              scores[i * SINGLE_STRIDE : i * SINGLE_STRIDE + 1], 1e-12)
    want = oracles.metrics(scores, [t.label for t in tweets])
    require(report["confusion"] == want["confusion"], "confusion counts differ")
    close("macro-F1", report["f1"], want["f1"], 1e-12)
    close("AUC", report["auc"], want["auc"], 1e-12)
    return ["checkpoint scores vs the saving model", "tweets scored alone", "confusion, macro-F1, AUC"]


__all__ = ["WORKLOADS", "TINY", "CheckFailed", "run_workload"]
