"""Process-wide resource settings: glibc's malloc policy, OpenBLAS's thread count, the worker count and the helper pool.

Each is a decision for the whole process, so it lives here once: no other
offgraph module touches malloc or OpenBLAS or starts a thread.

**The malloc policy** (``apply_malloc_policy``; glibc ``mallopt(3)``, a no-op
elsewhere) is set when this module is imported, which importing any part of
``offgraph`` does: before any offgraph code runs or any thread can open a
malloc arena of its own. Its three values hold for good, with no switch to
opt out, since no caller needs others:

  * ``M_TRIM_THRESHOLD`` at its ceiling keeps freed heap memory in the
    process. ``fit`` frees each step's tape before the next step builds its
    own; under glibc's default thresholds that hands the top of the heap
    back to the system, and the next step faults it in again. A three-epoch
    planted ``offgraph train`` took 374k minor faults and 1.33-1.54 s that
    way, and 24k faults and 1.08-1.15 s with this policy, at the same
    87-88 MB peak (2-core box, one BLAS thread).
  * ``M_MMAP_THRESHOLD`` at 32 MiB, glibc's own ceiling. Setting the trim
    threshold stops glibc from raising its mmap threshold as large blocks
    are freed, so without this every array above 128 KiB would be mapped
    anew.
  * ``M_ARENA_MAX`` at 1. A thread's own arena keeps its freed chunks too:
    scoring 1,000 planted tweets from a checkpoint on two threads took the
    peak RSS from 88.8 MB (one thread) to 100-103 MB with a second arena,
    and to 88.9-89.9 MB with this cap (2-core box, one BLAS thread).

**One BLAS thread** is set on import too, through numpy's OpenBLAS's
``set_num_threads``, whatever ``OPENBLAS_NUM_THREADS`` says. A handle to
numpy's extension module finds it among the libraries that module loaded
(dlopen(3)), so another OpenBLAS in the process (scipy's, say) is neither set
nor read. A product's last bits follow the BLAS thread count, so results no
longer depend on the environment, and the cores go to the helper pool rather
than to BLAS threads that would compete with it. Nothing is set where the
extension cannot be opened, where there is no ``RTLD_NOLOAD`` (Windows), where
numpy uses another BLAS, or where none of the names is exported.

**The worker count** (``scoring_workers``) is the cores this process may run
on (``os.sched_getaffinity``, else ``os.cpu_count``) at one BLAS thread
(``blas_threads``), else 1: BLAS's own threads may use the cores already.

**The helper pool** (``helper_pool``) starts one thread per worker beyond
the calling thread, all running jobs (``Job``) from one queue, so no more
BLAS threads run than there are cores. The caller counts as a worker: at two
BLAS threads a lone scoring thread ran about 4 % slower than the caller did.
``run_jobs`` queues a list of jobs and runs them on this thread too. No use
changes a result's bits:

  * ``predict`` runs one job per chunk. More workers would not pay: at two
    BLAS threads on 2 cores, two scoring threads took 123 ms for a
    1,000-tweet ``predict`` one scored in 107 ms.
  * ``DetectionModel.forward_halves`` runs a training batch's forward as two
    jobs, one per half of its rows, which share dropout masks through a
    ``lock``. The halves' rows are the whole batch's to the bit because
    ``tensor.matmul`` rounds a product row alike whatever rows sit beside it:
    it sums a width-1 product's elementwise products, and runs a one-row
    product as a two-row one. A planted training step's forward took 21.4 ms
    against 31.0 ms as one batch (medians of 5 paired processes, 2-core box,
    one BLAS thread).
  * ``Tensor.backward`` queues parameters' gradients and walks on down the
    tape: a planted fit trained 3,119 tweets/s against 2,726 without
    (perfbench ``train-planted`` medians of 10 paired 30 s runs, 2-core box,
    one BLAS thread), the wide-graph fit 2,639 against 2,313.
"""

from __future__ import annotations

import ctypes
import functools
import os
import queue
import threading
from collections.abc import Iterator
from contextlib import contextmanager

import numpy

__all__ = ["Job", "apply_malloc_policy", "blas_threads", "helper_pool", "lock", "run_jobs", "scoring_workers"]

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # mallopt parameters, malloc.h

# The affixes of OpenBLAS's exports in the builds that ship it: the copy numpy 2
# wheels bundle, the one numpy 1 wheels bundle, a system library.
_OPENBLAS_AFFIXES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
_OPENBLAS_SIGNATURES = {"get_num_threads": ((), ctypes.c_int), "set_num_threads": ((ctypes.c_int,), None)}


def apply_malloc_policy() -> None:
    """Keep freed memory in the process and allocate from one arena (glibc; elsewhere nothing)."""
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
        libc.mallopt(_M_ARENA_MAX, 1)


@functools.cache
def _openblas_function(name: str):
    """numpy's OpenBLAS's ``name`` (``get_num_threads``, say), found on numpy's extension module, or None."""
    try:
        core = numpy.core if numpy.__version__.startswith("1.") else numpy._core  # numpy 1.26's _core is a pickle shim
        lib = ctypes.CDLL(core._multiarray_umath.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except (AttributeError, OSError):  # no RTLD_NOLOAD (Windows), no extension file, or it cannot be opened
        return None
    for prefix, suffix in _OPENBLAS_AFFIXES:
        if hasattr(lib, prefix + name + suffix):
            function = getattr(lib, prefix + name + suffix)
            function.argtypes, function.restype = _OPENBLAS_SIGNATURES[name]
            return function
    return None


def blas_threads() -> int | None:
    """The threads OpenBLAS runs a product on now, or None where that cannot be read."""
    getter = _openblas_function("get_num_threads")
    return None if getter is None else getter()


def scoring_workers() -> int:
    """Threads that may run at once, the caller's included: one per core at one BLAS thread, else 1."""
    if blas_threads() != 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class Job:
    """A computation not run yet; ``run`` trades the callable and its arrays for its result or error."""

    __slots__ = ("compute", "value", "error")

    def __init__(self, compute):
        self.compute = compute
        self.value = self.error = None

    def run(self) -> None:
        try:
            self.value = self.compute()
        except BaseException as exc:  # raised again by result(), on the thread that asks
            self.error = exc
        self.compute = None

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value


@contextmanager
def helper_pool() -> Iterator[queue.SimpleQueue | None]:
    """Start ``scoring_workers() - 1`` threads that run each ``Job`` put on the queue this yields.

    At one worker it starts none and yields ``None``. However the block ends,
    the threads run every job still queued and are joined on exit.
    """
    workers = scoring_workers()
    lane = queue.SimpleQueue() if workers > 1 else None
    helpers = []
    try:
        for _ in range(workers - 1):
            # a daemon, so a helper that missed its None cannot keep the interpreter from exiting
            helper = threading.Thread(target=_run_until_none, args=(lane,), daemon=True)
            helper.start()
            helpers.append(helper)
        yield lane
    finally:
        for _ in helpers:
            lane.put(None)
        for helper in helpers:
            helper.join()


def run_jobs(jobs: list[Job]) -> None:
    """Run every job, on ``helper_pool()``'s threads and this one, or here in order at one worker.

    The helpers are joined before this returns; each job keeps its own result or error.
    """
    with helper_pool() as lane:
        if lane is None:
            for job in jobs:
                job.run()
            return
        for job in jobs:
            lane.put(job)
        try:  # this thread is one of the workers: it runs each job the helpers have not taken
            while True:
                lane.get_nowait().run()  # run() raises nothing
        except queue.Empty:
            pass


def lock() -> threading.Lock:
    """A lock for state that jobs running at once share."""
    return threading.Lock()


def _run_until_none(lane: queue.SimpleQueue) -> None:
    """A helper thread: run each ``Job`` on ``lane`` in the order put, until ``None``."""
    while (job := lane.get()) is not None:
        job.run()


apply_malloc_policy()
if (_set_blas_threads := _openblas_function("set_num_threads")) is not None:
    _set_blas_threads(1)
