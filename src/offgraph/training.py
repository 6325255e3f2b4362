"""End-to-end training orchestration.

One run: preprocess, split 7:3 by tweets, build the vocabulary from the
training side only, mask the social graph, then jointly optimize the graph
attention, encoder, and fusion parameters with one Adam over two groups (the
graph attention layer at its own learning rate, everything else at the base rate).
Test macro-F1 is tracked per epoch; training stops early once it fails to
improve for ``early_stop_patience`` consecutive epochs, and the best epoch's
metrics and parameters are what a run reports.

Every random choice (split, init, shuffling, dropout) derives from the one
config seed, so a run is bit-reproducible; its result JSON is byte-identical
across invocations.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import numbers
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .attention import fold_separate_qkv
from .corpus import Corpus, Split, Vocab, batches, build_vocab, encode, preprocess_corpus, split_corpus
from .fusion import POOLINGS
from .graph import (
    INIT_STRATEGIES,
    VARIANTS,
    SocialGraph,
    build_graph,
    graph_from_dict,
    graph_to_dict,
    mask_test_information,  # not called by fit; perfbench patches this name, tests/test_bench_contract.py pins it
    with_node_features,
)
from .losses import FocalParams, focal_loss_tensor
from .metrics import MetricsReport, metrics_report
from .model import ABLATIONS, DetectionModel
from .optim import Adam
from .outfile import numbered_lines, write_chunks

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "ConfigError",
    "EarlyStopper",
    "RunResult",
    "TrainedRun",
    "parse_config_file",
    "write_config_file",
    "fit",
    "train",
    "run_grid",
    "sweep",
    "save_checkpoint",
    "load_checkpoint",
]

class TrainingDiverged(RuntimeError):
    pass


class ConfigError(ValueError):
    """A TrainConfig rule broken; ``keys`` are the fields it involves, the rejected one first."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


_KINDS = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str}  # by annotation name


@dataclass(frozen=True)
class TrainConfig:
    """The run protocol, checked when built (else ``ConfigError``) and frozen: use ``dataclasses.replace``."""
    # protocol
    train_fraction: float = 0.7
    batch_size: int = 64
    max_epochs: int = 20
    early_stop_patience: int = 5
    lr_gat: float = 1e-2
    lr_rest: float = 5e-5
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    init_strategy: str = "nonoff"
    graph_variant: str = "soft"
    ablation: str = "full"
    seed: int = 7
    stratify_split: bool = False
    symmetric_neighbors: bool = False
    # model dimensions (desk scale; raise for fidelity experiments)
    gat_hidden: int = 64
    gat_heads: int = 8
    d_model: int = 64
    encoder_layers: int = 2
    encoder_heads: int = 4
    d_ff: int = 128
    max_len: int = 64
    fusion_heads: int = 4
    attention_dropout: float = 0.5
    hidden_dropout: float = 0.1
    pooling: str = "mean"
    # vocabulary
    vocab_min_freq: int = 1
    vocab_max_size: int = 30000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _KINDS[f.type]) or (f.type != "bool" and isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}", f.name)
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)", "train_fraction")
        positive = (
            "batch_size", "max_epochs", "early_stop_patience", "lr_gat", "lr_rest",
            "gat_hidden", "gat_heads", "d_model", "encoder_layers", "encoder_heads",
            "d_ff", "max_len", "fusion_heads", "vocab_min_freq", "vocab_max_size",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive", name)
        for name in ("attention_dropout", "hidden_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}", name)
        if self.d_model % self.fusion_heads:
            raise ConfigError(
                f"fusion_heads {self.fusion_heads} must divide d_model {self.d_model}", "fusion_heads", "d_model"
            )
        if self.early_stop_patience > self.max_epochs:
            raise ConfigError("early_stop_patience cannot exceed max_epochs", "early_stop_patience", "max_epochs")
        choices = (
            ("ablation", ABLATIONS), ("graph_variant", VARIANTS),
            ("init_strategy", INIT_STRATEGIES), ("pooling", POOLINGS),
        )
        for name, allowed in choices:
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; expected one of {allowed}", name)
        if self.ablation != "no_encoder" and self.d_model % self.encoder_heads:
            raise ConfigError(
                f"encoder_heads {self.encoder_heads} must divide d_model {self.d_model}",
                "encoder_heads", "d_model", "ablation",
            )
        if self.ablation not in ("no_gat", "single_head_gat") and self.gat_hidden % self.gat_heads:
            raise ConfigError(
                f"gat_heads {self.gat_heads} must divide gat_hidden {self.gat_hidden}",
                "gat_heads", "gat_hidden", "ablation",
            )
        for name in ("alpha", "gamma"):
            try:
                FocalParams(**{name: getattr(self, f"focal_{name}")})
            except ValueError as exc:
                raise ConfigError(f"focal_{exc}", f"focal_{name}") from None
        for name in ("lr_gat", "lr_rest"):
            if not getattr(self, name) < np.inf:  # NaN fails this too; checked last, so no older rule's message moves
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}", name)


_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}
_NUMBERS = {"int": int, "float": float}


def parse_config_file(path) -> TrainConfig:
    """Read a flat ``key = value`` file whose keys are TrainConfig fields, each set at most once."""
    types = {f.name: f.type for f in fields(TrainConfig)}  # type names: annotations are postponed
    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, line in numbered_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: config key {key!r} set again (first on line {lines[key]})")
        kind, lines[key] = types[key], lineno
        if kind == "bool":
            if raw.lower() not in _BOOLS:
                raise ValueError(f"{path}:{lineno}: bad boolean {raw!r}")
            values[key] = _BOOLS[raw.lower()]
        elif kind in _NUMBERS:
            try:
                values[key] = _NUMBERS[kind](raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad {kind} {raw!r} for {key}") from None
        else:
            values[key] = raw
    try:
        return TrainConfig(**values)
    except ConfigError as exc:
        set_here = [lines[key] for key in exc.keys if key in lines]
        raise ValueError(f"{path}:{set_here[0]}: {exc}" if set_here else f"{path}: {exc}") from None


def write_config_file(config: TrainConfig, path) -> None:
    write_chunks(path, (f"{key} = {value}\n" for key, value in asdict(config).items()))


class EarlyStopper:
    """Stop once the monitored score fails to improve for ``patience`` epochs."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, score: float) -> bool:
        """Record the epoch's score; True means stop now."""
        if score > self.best:
            self.best = score
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


@dataclass
class RunResult:
    config: dict
    seed: int
    epochs_run: int
    best_epoch: int
    train_loss: list[float]
    epoch_f1: list[float]
    best_metrics: MetricsReport

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "epochs_run": self.epochs_run,
            "best_epoch": self.best_epoch,
            "train_loss": self.train_loss,
            "epoch_f1": self.epoch_f1,
            "best_metrics": self.best_metrics.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class TrainedRun:
    """Everything a finished run produced; ``result`` is the reportable part."""

    result: RunResult
    model: DetectionModel
    best_state: dict[str, np.ndarray]
    vocab: Vocab
    graph: SocialGraph
    split: Split


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng([seed, which])


def _check_split(split: Split) -> None:
    """Fail before training when the split cannot produce a test-F1 epoch."""
    if not split.train or not split.test:
        raise ValueError(
            f"the split needs tweets on both sides: {len(split.train)} train, {len(split.test)} test"
        )
    offensive = sum(t.label == 1 for t in split.test)
    if offensive in (0, len(split.test)):
        raise ValueError(
            "the test split needs both classes to score F1 and AUC: "
            f"{len(split.test) - offensive} non-offensive, {offensive} offensive"
        )


def fit(config: TrainConfig, corpus: Corpus) -> TrainedRun:
    """Train per the full protocol and keep the best-F1 epoch's parameters."""
    corpus = preprocess_corpus(corpus)
    split = split_corpus(corpus, config.train_fraction, _stream(config.seed, 0), config.stratify_split)
    _check_split(split)
    vocab = build_vocab(split.train, config.vocab_min_freq, config.vocab_max_size)
    # features from the training tweets only: this is the test-information mask
    graph = with_node_features(build_graph(corpus), split.train, config.graph_variant, config.init_strategy, vocab)

    model = DetectionModel(config, len(vocab), graph.features.shape[1], _stream(config.seed, 1))
    train_seqs, test_seqs = ([encode(t, vocab, config.max_len) for t in side] for side in (split.train, split.test))
    focal = FocalParams(config.focal_alpha, config.focal_gamma)

    optimizer = Adam(zip(model.parameter_groups(), (config.lr_gat, config.lr_rest)))

    shuffle_rng = _stream(config.seed, 2)
    dropout_rng = _stream(config.seed, 3)

    stopper = EarlyStopper(config.early_stop_patience)
    losses: list[float] = []
    f1_history: list[float] = []
    best_metrics: MetricsReport | None = None
    best_state: dict[str, np.ndarray] | None = None
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        epoch_losses = []
        for batch in batches(train_seqs, config.batch_size, shuffle_rng):
            authors = model.user_embeddings(graph, graph.node_ids([s.author_id for s in batch]), rng=dropout_rng)
            probs = model.forward_halves(batch, authors, dropout_rng)
            loss = focal_loss_tensor(probs, [s.label for s in batch], focal)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss {value} at epoch {epoch}")
            loss.backward()
            del authors, probs, loss  # frees this step's tape before the next forward builds its own
            optimizer.step()  # clears the gradients, so the returned model holds none
            epoch_losses.append(value)
        losses.append(float(np.mean(epoch_losses)))

        scores = model.predict(test_seqs, graph)
        report = metrics_report(scores, [s.label for s in test_seqs])
        f1_history.append(report.f1)
        stop = stopper.update(epoch, report.f1)
        if stopper.best_epoch == epoch:
            best_metrics, best_state = report, model.state_arrays()
        if stop:
            break

    result = RunResult(
        config=asdict(config),
        seed=config.seed,
        epochs_run=epochs_run,
        best_epoch=stopper.best_epoch,
        train_loss=losses,
        epoch_f1=f1_history,
        best_metrics=best_metrics,
    )
    return TrainedRun(result=result, model=model, best_state=best_state, vocab=vocab, graph=graph, split=split)


def train(config: TrainConfig, corpus: Corpus) -> RunResult:
    return fit(config, corpus).result


def run_grid(config: TrainConfig, corpus: Corpus, overrides: list[dict]) -> list[RunResult]:
    """One ``train`` per override dict, in order, on ``config`` with those fields replaced.

    Ablations, sweeps and seed scans are all override lists; a ten-seed scan
    is ``run_grid(config, corpus, [{"seed": s} for s in range(10)])``.
    """
    configs = [replace(config, **o) for o in overrides]  # every override checked before the first fit
    return [train(c, corpus) for c in configs]


_METRIC_COLUMNS = ("auc", "accuracy", "precision", "recall", "f1")

# Each sweep axis: the CSV's leading columns, then one (cells, overrides) pair per row.
_SWEEPS = {
    "train_fraction": (
        ("train_fraction",),
        [((f,), {"train_fraction": f}) for f in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)],
    ),
    "init": (
        ("train_fraction", "init_strategy"),
        [((f, s), {"train_fraction": f, "init_strategy": s}) for f in (0.1, 0.7) for s in INIT_STRATEGIES],
    ),
    "variant": (
        ("model", "graph_variant"),
        [
            ((kind, v), {"graph_variant": v, "ablation": ablation})
            for kind, ablation in (("graph_only", "no_encoder"), ("full", "full"))
            for v in ("bow", "hard", "soft")
        ],
    ),
}
SWEEP_AXES = tuple(_SWEEPS)


def sweep(config: TrainConfig, axis: str, corpus: Corpus) -> str:
    """Run the named experiment grid and return its CSV table.

    ``train_fraction``: nine training ratios, 0.1 through 0.9.
    ``init``: the four unknown-feature strategies at sparse (0.1) and
    default (0.7) training ratios, eight rows.
    ``variant``: the three graph feature variants, each as the graph-only
    model (text encoder removed) and the full model, six rows.
    """
    if axis not in _SWEEPS:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    columns, rows = _SWEEPS[axis]
    results = run_grid(config, corpus, [overrides for _, overrides in rows])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([*columns, *_METRIC_COLUMNS])
    for (cells, _), result in zip(rows, results):
        writer.writerow([*cells, *(repr(getattr(result.best_metrics, k)) for k in _METRIC_COLUMNS)])
    return buffer.getvalue()


# -- checkpoints ----------------------------------------------------------


def _encode_param(value: np.ndarray) -> dict:
    """Format 2: the array's little-endian float64 bytes in C order, base64-encoded."""
    value = np.asarray(value, dtype="<f8")
    return {"shape": list(value.shape), "data": base64.b64encode(value.tobytes()).decode("ascii")}


def _decode_param(entry: dict, fmt: int) -> np.ndarray:
    """One parameter entry back as a writable float64 array; format 1 holds a flat list of numbers."""
    data = entry["data"]
    if fmt == 2:
        if not isinstance(data, str):
            raise ValueError("format 2 stores data as a base64 string")
        flat = np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8").astype(np.float64)
    else:
        if isinstance(data, str):
            raise ValueError("format 1 stores data as a list of numbers")
        flat = np.asarray(data, dtype=np.float64)
    return flat.reshape(entry["shape"])


def save_checkpoint(run: TrainedRun, path) -> None:
    """Self-describing JSON: format, config, vocabulary, masked graph, best parameters."""
    payload = {
        "format": 2,
        "config": run.result.config,
        "vocab": run.vocab.tokens,
        "graph": graph_to_dict(run.graph),
        "params": {name: _encode_param(value) for name, value in run.best_state.items()},
    }
    write_chunks(path, json.JSONEncoder(ensure_ascii=False, indent=2).iterencode(payload))  # as json.dump writes it


@dataclass
class Checkpoint:
    config: TrainConfig
    model: DetectionModel
    vocab: Vocab
    graph: SocialGraph


_CHECKPOINT_KEYS = {"config": (dict, "an object"), "vocab": (list, "a list"), "graph": (dict, "an object"),
                    "params": (dict, "an object")}


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``; any malformed file raises one ``ValueError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _checkpoint(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _checkpoint(payload) -> Checkpoint:
    missing = [key for key in _CHECKPOINT_KEYS if not isinstance(payload, dict) or key not in payload]
    if missing:
        raise ValueError(f"not a checkpoint, missing keys {missing}")
    for key, (kind, what) in _CHECKPOINT_KEYS.items():
        if not isinstance(payload[key], kind):
            raise ValueError(f"the checkpoint {key} is not {what}")
    fmt = payload.get("format", 1)
    if type(fmt) is not int or fmt not in (1, 2):
        raise ValueError(f"unsupported checkpoint format {fmt!r} (expected 1 or 2)")
    unknown = sorted(set(payload["config"]) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    config = TrainConfig(**payload["config"])
    try:
        vocab = Vocab(tokens=payload["vocab"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"the checkpoint vocab is malformed ({exc})") from None
    try:
        graph = graph_from_dict(payload["graph"])
    except KeyError as exc:
        raise ValueError(f"the checkpoint graph has no {exc} key") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"the checkpoint graph is malformed ({exc})") from None
    if graph.features is None:
        raise ValueError("the checkpoint graph has no node features")
    model = DetectionModel(config, len(vocab), graph.features.shape[1], None)  # zeros, filled below
    arrays = {}
    for name, entry in payload["params"].items():
        if not isinstance(entry, dict):
            raise ValueError(f"checkpoint parameter {name!r} is not an object")
        try:
            arrays[name] = _decode_param(entry, fmt)
        except KeyError as exc:
            raise ValueError(f"checkpoint parameter {name!r} has no {exc} key") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint parameter {name!r} has a malformed shape or data ({exc})") from None
    fold_separate_qkv(arrays)
    model.load_state_arrays(arrays)
    return Checkpoint(config=config, model=model, vocab=vocab, graph=graph)
