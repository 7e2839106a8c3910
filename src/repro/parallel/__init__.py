"""Parallel-execution substrate (S14).

Fitting a random forest, sweeping a CV grid, encoding records and
computing large pairwise Hamming matrices are embarrassingly parallel.
This package provides:

* :func:`repro.parallel.pool.parallel_map` — ordered map over a thread
  pool, sized per call (``n_jobs``) or by the ``REPRO_WORKERS``
  environment variable (:func:`repro.parallel.pool.effective_workers`);
* :func:`repro.parallel.chunking.chunk_spans` — the contiguous row blocks
  that bound peak memory of O(n^2) kernels.

NumPy releases the GIL inside its kernels, so threads are the one
backend: the hot loops here (XOR + popcount, gathers, bit-plane
majority) are NumPy calls on large arrays and scale across threads
without pickling.
"""

from repro.parallel.pool import parallel_map, effective_workers
from repro.parallel.chunking import chunk_spans

__all__ = [
    "parallel_map",
    "effective_workers",
    "chunk_spans",
]
