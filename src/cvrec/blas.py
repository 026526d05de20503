"""Scoped control of the BLAS thread count.

Scoring (`predict.score_cases`) issues hundreds of small matrix products per
second. With two OpenBLAS threads each product ends in a barrier, and
between products the worker spins on the other core, so scoring needs both
cores all the time and stalls whenever either is taken away. On a 2-vCPU
KVM guest (Xeon, Sapphire Rapids) an eval-ml100k-shaped round (72 cases,
S=128) took 1.90 s with two threads and 2.18 s with one on a quiet host; with
another process busy half the time on one core (20 or 4 ms bursts) it took
23-29% longer with two threads and 0-4% longer with one, and in a spell of
host steal two-thread rounds ran 3-4 times slower against under 2 times for
one thread. `single_thread()` runs a block with one BLAS thread and restores
the count on exit, trading about 13% of quiet-host speed for scoring times
that move far less with the host's load.

A threaded product leaves OpenBLAS's idle thread spinning on the other core
for a while after it returns, and setting the count to 1 does not stop it.
On a 2-core guest a two-thread `train.adam_step` took 5.5 ms alone but 10.0
ms right after a two-thread GEMM, and 10.04 ms with the count set to 1
between the two. The spinning thread takes a core from whatever runs next.
So a scoring call holds one BLAS thread from start to finish: `predict.rank`
and the scorer of `evaluate`, `evaluate_cold` and validation enter
`single_thread()` before their posterior passes, not only around
`score_cases`. Running just the posterior passes on one BLAS thread cut the
time per eval-ml100k case from 7.64-8.21 to 6.98-7.16 ms (3 seeds).

Only numpy's bundled OpenBLAS, found next to numpy as in its wheels, is
controlled; with any other BLAS `single_thread()` changes nothing. The count
is process-wide, so every Python thread that runs a product inside the block
uses one BLAS thread. Scoring relies on that: its pools, one thread per core,
run the posterior passes' chunks and every product of `score_cases` except
the user halves the calling thread draws, and each pool is created and shut
down inside `single_thread()`. So scoring uses the cores through its own
threads, each product on one core, rather than through OpenBLAS's.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

# (get, set) symbol pairs of the OpenBLAS builds numpy wheels have shipped
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                return getattr(lib, get), getattr(lib, set_)
    return None


@contextmanager
def single_thread():
    """Run the block with one BLAS thread; restore the count on exit."""
    fns = _openblas()
    n = fns[0]() if fns is not None else 1
    if n == 1:
        yield
        return
    fns[1](1)
    try:
        yield
    finally:
        fns[1](n)
