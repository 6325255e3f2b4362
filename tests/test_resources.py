"""Process-wide resource settings: one malloc policy for every entry point, and the scoring worker count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from offgraph import resources
from offgraph.cli import main
from offgraph.corpus import write_edges_tsv, write_tweets_jsonl
from offgraph.synthetic import generate_corpus

CONFIG = """
max_epochs = 1
early_stop_patience = 1
gat_hidden = 8
gat_heads = 2
d_model = 8
encoder_layers = 1
encoder_heads = 2
d_ff = 12
max_len = 16
fusion_heads = 2
"""


def test_the_cli_fit_and_predict_each_apply_the_one_malloc_policy(tmp_path, monkeypatch):
    """And every backward pass that starts a helper thread, before it does."""
    callers = []
    monkeypatch.setattr(resources, "apply_malloc_policy", lambda: callers.append(sys._getframe(1).f_code.co_name))
    monkeypatch.setattr(resources, "scoring_workers", lambda: 2)
    corpus = generate_corpus(200, 25, seed=5)
    write_tweets_jsonl(corpus.tweets, tmp_path / "tweets.jsonl")
    write_edges_tsv(corpus.edges, tmp_path / "edges.tsv")
    (tmp_path / "run.cfg").write_text(CONFIG)
    status = main([
        "train", "--config", str(tmp_path / "run.cfg"), "--tweets", str(tmp_path / "tweets.jsonl"),
        "--edges", str(tmp_path / "edges.tsv"), "--out", str(tmp_path / "result.json"),
    ])
    assert status == 0
    steps = callers.count("backward")
    assert steps > 0 and callers == ["main", "fit", *["backward"] * steps, "predict"]  # one epoch, scored once


@pytest.mark.parametrize(
    "blas, cores, workers",
    [(None, 2, 1), (None, 8, 1), (1, 2, 2), (2, 2, 1), (1, 4, 4), (2, 8, 4), (3, 8, 2), (4, 2, 1), (64, 1, 1)],
)
def test_scoring_workers_are_the_cores_blas_leaves_idle(monkeypatch, blas, cores, workers):
    monkeypatch.setattr(resources, "blas_threads", lambda: blas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert resources.scoring_workers() == workers


def test_the_blas_probe_finds_nothing_where_the_library_cannot_be_opened(monkeypatch):
    def gone(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(resources.ctypes, "CDLL", gone)
    assert resources._openblas_getter.__wrapped__() is None  # the uncached lookup


def test_the_blas_probe_reads_the_thread_count_it_was_started_with():
    src = str(Path(resources.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "from offgraph import resources; print(resources.blas_threads(), resources.scoring_workers())"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.split()
    if out[0] == "None":
        pytest.skip("this numpy build loads no OpenBLAS that exports a get_num_threads symbol")
    assert out == ["1", str(len(os.sched_getaffinity(0)))]
