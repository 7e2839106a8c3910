"""Ordered parallel map over a thread pool.

Design notes
------------
* **Threads only** — every fan-out in the library (record encoding,
  Hamming tiles, forest/GBDT/CV fitting) is NumPy-bound work that
  releases the GIL, so threads scale without pickling and worker spans
  nest under the caller's trace tree via :func:`repro.obs.run_with_parent`.
* **Ordering** — results are returned in input order regardless of
  completion order, so callers (forest fitting, CV folds) stay
  deterministic.
* **Serial fast path** — with one worker (or fewer than two items) we run
  inline; no pool is spun up, which keeps single-core machines and tests
  fast and makes tracebacks direct.
* **Error propagation** — the first worker exception is re-raised in the
  caller with its original type; remaining futures are cancelled.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro import obs

T = TypeVar("T")
R = TypeVar("R")


def effective_workers(n_jobs: Optional[int] = None) -> int:
    """Resolve a worker count.

    ``None``/0 → the ``REPRO_WORKERS`` env var if set, else cpu count;
    negative → ``max(1, cpu + 1 + n_jobs)`` (sklearn-style ``-1`` = all).
    An explicit positive count always beats the environment, and an
    invalid ``REPRO_WORKERS`` raises ``ValueError`` rather than being
    silently ignored.
    """
    if n_jobs is None or n_jobs == 0:
        env = os.environ.get("REPRO_WORKERS")
        if env is not None:
            try:
                return max(1, int(env))
            except ValueError as exc:
                raise ValueError(f"REPRO_WORKERS must be an int, got {env!r}") from exc
        return max(1, os.cpu_count() or 1)
    if n_jobs < 0:
        return max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    return n_jobs


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    n_jobs: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every item, in order, possibly on worker threads.

    ``n_jobs`` is the worker-count request (see :func:`effective_workers`);
    inputs that would get fewer than two workers run inline.  Returns
    ``[fn(x) for x in items]``, in input order.
    """
    seq: Sequence[T] = list(items)
    workers = min(effective_workers(n_jobs), len(seq))
    if workers < 2:
        # Serial path needs no propagation: spans opened inside ``fn``
        # nest naturally under the caller's active span.
        return [fn(x) for x in seq]

    # Span propagation (repro.obs): worker threads adopt the dispatch-time
    # active span as their parent.  Costs one enabled() check when
    # tracing is disarmed.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        if obs.enabled():
            parent = obs.current_span_id()
            futures = [pool.submit(obs.run_with_parent, parent, fn, x) for x in seq]
        else:
            futures = [pool.submit(fn, x) for x in seq]
        try:
            return [fut.result() for fut in futures]
        except BaseException:
            for fut in futures:
                fut.cancel()
            raise
