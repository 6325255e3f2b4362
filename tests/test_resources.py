"""Process-wide resource settings: the malloc policy and one BLAS thread set on import, and the worker count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from offgraph import resources

SRC = str(Path(resources.__file__).resolve().parents[1])


def _fresh_python(code: str, **env) -> str:
    """What ``code`` prints when run by a new interpreter that imports this checkout's offgraph.

    ``env`` entries are set in its environment, or removed from it where the value is None.
    """
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    env = {name: value for name, value in env.items() if value is not None}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_importing_offgraph_sets_the_malloc_policy_once():
    """Before any offgraph code runs: libc is stubbed before the import, and the import is all that runs."""
    probe = """
import ctypes, json, types
calls = []
def mallopt(param, value):
    calls.append([param, value])
    return 1
libc, real = types.SimpleNamespace(mallopt=mallopt), ctypes.CDLL
ctypes.CDLL = lambda name, *args, **kwargs: libc if name is None else real(name, *args, **kwargs)
import offgraph, offgraph.cli
print(json.dumps(calls))
"""
    trim, mmap, arenas = [-1, 2**31 - 1], [-3, 32 * 2**20], [-8, 1]  # mallopt parameters per malloc.h
    assert json.loads(_fresh_python(probe)) == [trim, mmap, arenas]


@pytest.mark.parametrize(
    "blas, cores, workers",
    [(None, 2, 1), (None, 8, 1), (1, 2, 2), (2, 2, 1), (1, 4, 4), (2, 8, 1), (3, 8, 1), (4, 2, 1), (64, 1, 1)],
)
def test_scoring_workers_are_the_cores_blas_leaves_idle(monkeypatch, blas, cores, workers):
    """One BLAS thread leaves every core to a worker; more, or a count that cannot be read, leave one."""
    monkeypatch.setattr(resources, "blas_threads", lambda: blas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert resources.scoring_workers() == workers


def test_the_blas_probe_finds_nothing_where_the_library_cannot_be_opened(monkeypatch):
    def gone(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(resources.ctypes, "CDLL", gone)
    assert resources._openblas_function.__wrapped__("get_num_threads") is None  # the uncached lookup


def test_the_blas_probe_reads_the_thread_count_it_was_started_with():
    probe = "from offgraph import resources; print(resources.blas_threads(), resources.scoring_workers())"
    out = _fresh_python(probe, OPENBLAS_NUM_THREADS="1").split()
    if out[0] == "None":
        pytest.skip("this numpy build loads no OpenBLAS that exports a get_num_threads symbol")
    assert out == ["1", str(len(os.sched_getaffinity(0)))]


@pytest.mark.parametrize("environment", ["2", None], ids=["OPENBLAS_NUM_THREADS=2", "unset"])
def test_importing_offgraph_sets_one_blas_thread(environment):
    probe = """
from offgraph import resources as r
print(r._openblas_function("set_num_threads") is not None, r.blas_threads(), r.scoring_workers())
"""
    out = _fresh_python(probe, OPENBLAS_NUM_THREADS=environment).split()
    if out[0] == "False":
        pytest.skip("this numpy build loads no OpenBLAS that exports a set_num_threads symbol, so nothing is set")
    assert out[1:] == ["1", str(len(os.sched_getaffinity(0)))]
