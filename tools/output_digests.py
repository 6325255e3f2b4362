"""Print one sha256 per CLI output on a fixed planted setting.

A change that must not move any result runs this before and after and
diffs the two listings:

    PYTHONPATH=src python tools/output_digests.py > after.txt

Run the same script with ``PYTHONPATH`` pointing at the other checkout's
``src`` for the before listing. The setting is ``generate_corpus(1000, 100,
seed=7)`` at the acceptance suite's ``E2E_CONFIG`` (imported from
``tests/test_acceptance.py``) cut to two epochs (``max_epochs =
early_stop_patience = 2``). Covered outputs:

  * ``train`` result JSON and checkpoint for the default config,
    ``symmetric_neighbors = true``, ``ablation = no_attention_layer``, and
    ``graph_variant = bow`` with ``stratify_split = true``;
  * ``ablate --variant all`` and ``sweep --axis variant`` on the default
    config;
  * ``eval`` of each checkpoint on the training tweets and on 300 fresh
    tweets (tweets 1000-1299 of ``generate_corpus(1300, 100, seed=7)``);
  * the raw ``float64`` bytes ``predict`` returns for the default
    checkpoint on the 300 fresh tweets, scored as ``eval`` scores them
    (``scores_default_fresh.f64``). Eval reports carry thresholded metrics
    only, so this is the one digest that sees a last-bit change in a score;
  * ``build-graph`` for soft/nonoff, soft/avg (the training means), hard/avg
    and bow;
  * ``preprocess`` of both tweet files.

The first stderr line names the imported package, so a listing cannot come
from the wrong checkout unnoticed. Make both listings on one machine with the
same BLAS thread count (say ``OPENBLAS_NUM_THREADS=1``): training sums differ
in their last bits across thread counts, so checkpoints and results do too.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import offgraph
from offgraph import (
    cli,
    encode,
    generate_corpus,
    load_checkpoint,
    load_tweets,
    preprocess,
    write_edges_tsv,
    write_tweets_jsonl,
)
from offgraph.training import write_config_file

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_acceptance import E2E_CONFIG  # noqa: E402

BASE_CONFIG = replace(E2E_CONFIG, max_epochs=2, early_stop_patience=2)
TRAIN_RUNS = {
    "default": {},
    "symmetric": {"symmetric_neighbors": True},
    "no_attention_layer": {"ablation": "no_attention_layer"},
    "bow_stratified": {"graph_variant": "bow", "stratify_split": True},
}
GRAPHS = (("soft", "nonoff"), ("soft", "avg"), ("hard", "avg"), ("bow", "nonoff"))


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the digests
        status = cli.main(list(argv))
    if status != 0:
        raise SystemExit(f"offgraph {' '.join(argv)} failed")


def _write_scores(checkpoint: Path, tweets: Path, out: Path) -> Path:
    """Write the probabilities ``offgraph eval`` computes, as raw float64 bytes."""
    ckpt = load_checkpoint(checkpoint)
    seqs = [encode(preprocess(t), ckpt.vocab, ckpt.config.max_len) for t in load_tweets(tweets)]
    out.write_bytes(ckpt.model.predict(seqs, ckpt.graph).tobytes())
    return out


def produce(work: Path) -> list[Path]:
    """Write every covered output under ``work``; return them in a fixed order."""
    corpus = generate_corpus(1000, 100, seed=7)
    fresh = generate_corpus(1300, 100, seed=7)
    tweets, fresh_tweets, edges = work / "tweets.jsonl", work / "fresh.jsonl", work / "edges.tsv"
    write_tweets_jsonl(corpus.tweets, tweets)
    write_tweets_jsonl(fresh.tweets[1000:], fresh_tweets)
    write_edges_tsv(corpus.edges, edges)
    data = ["--tweets", str(tweets), "--edges", str(edges)]

    outputs = []
    for name, overrides in TRAIN_RUNS.items():
        config = work / f"{name}.cfg"
        write_config_file(replace(BASE_CONFIG, **overrides), config)
        result, ckpt = work / f"train_{name}.json", work / f"ckpt_{name}.json"
        _run("train", "--config", str(config), *data, "--out", str(result), "--checkpoint", str(ckpt))
        outputs += [result, ckpt]
        for label, path in (("train", tweets), ("fresh", fresh_tweets)):
            scored = work / f"eval_{name}_{label}.json"
            _run("eval", "--checkpoint", str(ckpt), "--tweets", str(path), "--out", str(scored))
            outputs.append(scored)
        if name == "default":
            outputs.append(_write_scores(ckpt, fresh_tweets, work / "scores_default_fresh.f64"))

    table = work / "ablate_all.json"
    _run("ablate", "--config", str(work / "default.cfg"), "--variant", "all", *data, "--out", str(table))
    outputs.append(table)
    grid = work / "sweep_variant.csv"
    _run("sweep", "--axis", "variant", "--config", str(work / "default.cfg"), *data, "--out", str(grid))
    outputs.append(grid)
    for variant, init in GRAPHS:
        graph = work / f"graph_{variant}_{init}.json"
        _run("build-graph", *data, "--variant", variant, "--init", init, "--out", str(graph))
        outputs.append(graph)
    for path in (tweets, fresh_tweets):
        cleaned = work / f"preprocessed_{path.stem}.jsonl"
        _run("preprocess", "--in", str(path), "--out", str(cleaned))
        outputs.append(cleaned)
    return outputs


def main() -> int:
    print(f"offgraph from {Path(offgraph.__file__).resolve().parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for path in produce(Path(tmp)):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
