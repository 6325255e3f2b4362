"""Process-wide resource settings: the malloc policy and one BLAS thread set on import, the worker count, and the
helper pool."""

import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
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
    [(None, 2, 1), (None, 8, 1), (1, 2, 2), (2, 2, 1), (1, 4, 4), (2, 8, 1), (3, 8, 1), (4, 2, 1), (64, 1, 1)]
    + [(1, None, 3), (2, None, 1)],  # cores None: no os.sched_getaffinity (macOS), and os.cpu_count() gives 3
)
def test_scoring_workers_are_the_cores_blas_leaves_idle(monkeypatch, blas, cores, workers):
    """One BLAS thread leaves every core to a worker; more, or a count that cannot be read, leave one."""
    monkeypatch.setattr(resources, "blas_threads", lambda: blas)
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert resources.scoring_workers() == workers


def test_the_blas_probe_finds_nothing_where_the_library_cannot_be_opened(monkeypatch):
    def gone(path, *args, **kwargs):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(resources.ctypes, "CDLL", gone)
    assert resources._openblas_function.__wrapped__("get_num_threads") is None  # the uncached lookup


def test_the_blas_probe_finds_nothing_where_numpy_exports_no_openblas_name(monkeypatch):
    """numpy built against another BLAS: the handle opens but has none of the names, so one worker runs."""
    monkeypatch.setattr(resources.ctypes, "CDLL", lambda path, *args, **kwargs: object())
    monkeypatch.setattr(resources, "_openblas_function", resources._openblas_function.__wrapped__)  # uncached
    assert resources._openblas_function("get_num_threads") is None
    assert resources.scoring_workers() == 1


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


def test_importing_offgraph_reads_no_proc_file():
    """The BLAS lookup goes through numpy's extension module, so importing offgraph opens no ``/proc`` file."""
    probe = """
import builtins, io, json
import numpy
paths, real = [], builtins.open
def recording_open(file, *args, **kwargs):
    paths.append(str(file))
    return real(file, *args, **kwargs)
builtins.open = io.open = recording_open
import offgraph, offgraph.cli
print(json.dumps([path for path in paths if path.startswith("/proc")]))
"""
    assert json.loads(_fresh_python(probe)) == []


def test_importing_offgraph_after_scipy_sets_numpys_blas():
    """scipy maps an OpenBLAS of its own; the handle on numpy's extension still finds numpy's, and sets it."""
    if importlib.util.find_spec("scipy") is None:
        pytest.skip("scipy is not installed, so no second OpenBLAS can be loaded first")
    probe = """
import scipy.linalg
from offgraph import resources as r
print(r._openblas_function("set_num_threads") is not None, r.blas_threads(), r.scoring_workers())
"""
    out = _fresh_python(probe, OPENBLAS_NUM_THREADS=None).split()
    if out[0] == "False":
        pytest.skip("this numpy build loads no OpenBLAS that exports a set_num_threads symbol, so nothing is set")
    assert out[1:] == ["1", str(len(os.sched_getaffinity(0)))]


def test_the_calling_thread_runs_the_jobs_the_helpers_have_not_taken(monkeypatch):
    """At two workers the one helper is held in job ``a`` until job ``b`` sets its event, so only the
    calling thread, running what is still queued as it leaves the pool, can run ``b``."""
    monkeypatch.setattr(resources, "scoring_workers", lambda: 2)
    started, released = threading.Event(), threading.Event()

    def held():
        started.set()
        return released.wait(5.0)  # well inside the suite's 60 s faulthandler timeout

    def release():
        released.set()
        return threading.current_thread() is threading.main_thread()

    a, b = resources.Job(held), resources.Job(release)
    with resources.helper_pool() as submit:
        submit(a)
        assert started.wait(5.0)  # the helper holds a
        submit(b)
    assert a.result() is True  # a saw the event set, not its timeout
    assert b.result() is True  # b ran on the calling thread


def test_at_one_worker_submit_runs_the_job_at_once_and_no_thread_starts(monkeypatch):
    monkeypatch.setattr(resources, "scoring_workers", lambda: 1)
    threads = threading.active_count()
    job = resources.Job(lambda: (threading.current_thread(), threading.active_count()))
    with resources.helper_pool() as submit:
        submit(job)
        assert job.result() == (threading.current_thread(), threads)  # ran before submit returned, here


@pytest.mark.parametrize("workers", [1, 3])
def test_run_jobs_returns_results_in_job_order_and_raises_the_first_failure_in_it(monkeypatch, workers):
    monkeypatch.setattr(resources, "scoring_workers", lambda: workers)
    assert resources.run_jobs([resources.Job(lambda i=i: i * i) for i in range(7)]) == [i * i for i in range(7)]

    def fail(message, after):
        time.sleep(after)
        raise ValueError(message)

    jobs = [
        resources.Job(lambda: 0),
        resources.Job(lambda: fail("earlier", 0.05)),  # fails last in time above one worker
        resources.Job(lambda: 2),
        resources.Job(lambda: fail("later", 0.0)),
    ]
    with pytest.raises(ValueError, match="earlier"):
        resources.run_jobs(jobs)
    assert str(jobs[3].error) == "later"  # every job ran
