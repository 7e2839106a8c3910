"""Row-span decomposition for blocked kernels.

The encoder, the pairwise Hamming matrix and the streaming top-k engine
all walk their inputs in contiguous row blocks so peak temporary memory
stays bounded at ``block x n`` words; :func:`chunk_spans` yields those
blocks, which callers dispatch through
:func:`repro.parallel.pool.parallel_map`.
"""

from __future__ import annotations

from typing import List, Tuple


def chunk_spans(n: int, chunk: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into contiguous ``[start, stop)`` spans.

    >>> chunk_spans(10, 4)
    [(0, 4), (4, 8), (8, 10)]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
