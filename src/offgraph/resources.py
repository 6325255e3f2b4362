"""Process-wide resource settings: glibc's malloc policy and the worker count.

Both are decisions for the whole process, so they live here once and every
entry point asks this module: ``offgraph.cli.main``, ``fit`` at its start,
``DetectionModel.predict`` before it starts its scoring threads and
``Tensor.backward`` before it starts its helper thread.

**The malloc policy** (``apply_malloc_policy``; glibc ``mallopt(3)``, a no-op
elsewhere) sets three values, for the whole process and for good:

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
  * ``M_ARENA_MAX`` at 1. Each thread that allocates would otherwise get a
    malloc arena of its own, which keeps its freed chunks as the main one
    does: scoring 1,000 planted tweets from a checkpoint on two threads
    raised the process's peak RSS from 88.8 MB (one thread) to 100-103 MB
    with a second arena, and to 88.9-89.9 MB with this cap (2-core box, one
    BLAS thread).

There is deliberately no switch to opt out: no caller needs other values.

**The worker count** (``scoring_workers``) is the number of cores this
process may run on (``os.sched_getaffinity``) divided by the threads
OpenBLAS runs each product on, and at least 1: one BLAS thread on a 2-core
box gives 2 workers; the default of one BLAS thread per core gives 1. The
BLAS count is read from the OpenBLAS library numpy loaded, never set; where
it cannot be read (another BLAS, or no ``/proc``) the count is 1. The one
count sizes both uses of the cores BLAS leaves idle, so neither runs more
BLAS threads than there are cores:

  * ``predict`` scores that many chunks at once. More would not pay: at two
    BLAS threads on 2 cores, two scoring threads took 123 ms for a
    1,000-tweet ``predict`` that one thread scored in 107 ms (medians of 30).
  * ``Tensor.backward``, above one worker, starts one helper thread that
    computes parameters' gradients while the calling thread walks on down
    the tape. A planted fit trained 3,119 tweets/s against 2,726 without it
    (perfbench ``train-planted`` medians of 10 paired 30 s runs, 2-core box,
    one BLAS thread), and the wide-graph fit 2,639 against 2,313.
"""

from __future__ import annotations

import ctypes
import functools
import os

__all__ = ["apply_malloc_policy", "blas_threads", "scoring_workers"]

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # mallopt parameters, malloc.h

# OpenBLAS's thread-count getter under the names its builds export: the copy
# numpy 2 wheels bundle, the one numpy 1 wheels bundle, a system library.
_GET_NUM_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


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
def _openblas_getter():
    """The loaded OpenBLAS's ``get_num_threads``, found through the process's mappings; None without one."""
    try:
        with open("/proc/self/maps") as maps:
            fields = (line.split(maxsplit=5) for line in maps)
            paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # the mapped file is gone, say replaced since it was loaded
            continue
        for name in _GET_NUM_THREADS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = (), ctypes.c_int
                return getter
    return None


def blas_threads() -> int | None:
    """The threads OpenBLAS runs a product on now, or None where that cannot be read."""
    getter = _openblas_getter()
    return None if getter is None else getter()


def scoring_workers() -> int:
    """Threads ``predict`` scores on (above 1, ``backward`` starts a helper): cores // BLAS threads, at least 1."""
    threads = blas_threads()
    if not threads:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // threads)
