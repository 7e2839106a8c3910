"""Hamming-distance kernels on packed hypervectors (S1/S4).

§II-C of the paper classifies with raw Hamming distance because on binary
vectors it reduces to ``popcount(a XOR b)``.  These kernels implement that
idea with HPC idioms from the session guides: no Python-level loops over
vector pairs, blocked evaluation to bound temporaries, and
``np.bitwise_count`` on 64-bit words so each instruction covers 64 bits.

Since PR 7 the block kernel dispatches through :mod:`repro.kernels`
(``REPRO_KERNEL=numpy|native|auto``): validation and contracts stay
here, the popcount arithmetic runs in the selected backend, and every
backend is pinned bit-identical to the numpy baseline.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

import numpy as np

from repro.kernels import get_backend
from repro.parallel.chunking import chunk_spans
from repro.parallel.pool import parallel_map
from repro.utils.contracts import checks_same_dim
from repro.utils.validation import check_positive_int


@checks_same_dim("A", "B")
def hamming_rowwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Hamming distance between corresponding rows of two packed batches.

    ``A`` and ``B`` must broadcast against each other; the word axis is the
    last one.  Returns int64 distances with the broadcast shape minus the
    word axis.
    """
    A = np.asarray(A, dtype=np.uint64)
    B = np.asarray(B, dtype=np.uint64)
    return np.bitwise_count(A ^ B).sum(axis=-1, dtype=np.int64)


@checks_same_dim("A", "B")
def hamming_block(
    A: np.ndarray, B: np.ndarray, *, word_chunk: Optional[int] = None
) -> np.ndarray:
    """Dense ``(m, n)`` Hamming block between two packed batches.

    The numpy backend evaluates ``popcount(A[:, None] ^ B[None, :])`` in
    one shot by default, materialising an ``m * n * words``-word XOR
    temporary.  With ``word_chunk`` set, the popcount instead accumulates
    over slices of ``word_chunk`` words, capping the temporary at
    ``m * n * word_chunk`` words — for modest tiles the working set then
    fits in cache, which is what makes the streaming search engine
    (:mod:`repro.core.search`) faster than the one-shot kernel even
    before parallel dispatch.  The arithmetic dispatches through
    :func:`repro.kernels.get_backend` (``REPRO_KERNEL``); the compiled
    backend uses hardware popcount and ignores ``word_chunk`` (results
    are invariant to it by contract).  Output is always int64.
    """
    A = np.asarray(A, dtype=np.uint64)
    B = np.asarray(B, dtype=np.uint64)
    if word_chunk is not None and word_chunk < 1:
        raise ValueError(f"word_chunk must be >= 1, got {word_chunk}")
    return get_backend().hamming_block(A, B, word_chunk=word_chunk)


def _pairwise_span(A: np.ndarray, B: np.ndarray, span: Tuple[int, int]) -> np.ndarray:
    # One row block of A against all of B; parallel_map fans these out.
    return hamming_block(A[span[0]:span[1]], B)


@checks_same_dim("A", "B")
def pairwise_hamming(
    A: np.ndarray,
    B: Optional[np.ndarray] = None,
    *,
    chunk_rows: int = 64,
    n_jobs: Optional[int] = 1,
) -> np.ndarray:
    """Full Hamming distance matrix between packed batches.

    Parameters
    ----------
    A : (m, words) uint64
    B : (n, words) uint64 or None
        ``None`` means ``B = A`` (the LOOCV case).
    chunk_rows:
        Rows of ``A`` processed per block (this function's own chunking);
        each block materialises an ``chunk_rows x n x words`` XOR
        temporary, so this bounds memory at roughly
        ``chunk_rows * n * words * 9`` bytes.
    n_jobs:
        Worker threads for block dispatch (default 1 = serial;
        ``None``/``0`` defers to the ``REPRO_WORKERS`` env var via
        :func:`repro.parallel.pool.effective_workers`).

    Returns
    -------
    (m, n) int64 distance matrix.
    """
    A = np.asarray(A, dtype=np.uint64)
    B = A if B is None else np.asarray(B, dtype=np.uint64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("packed batches must be 2-d (n, words)")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"word-count mismatch: {A.shape[1]} vs {B.shape[1]}")
    spans = chunk_spans(A.shape[0], chunk_rows)
    if not spans:
        return np.zeros((0, B.shape[0]), dtype=np.int64)
    blocks = parallel_map(partial(_pairwise_span, A, B), spans, n_jobs=n_jobs)
    return np.concatenate(blocks, axis=0)


def normalized_pairwise_hamming(
    A: np.ndarray,
    B: Optional[np.ndarray] = None,
    *,
    dim: int,
    chunk_rows: int = 64,
    n_jobs: Optional[int] = 1,
) -> np.ndarray:
    """Pairwise Hamming distances scaled by ``dim`` into [0, 1]."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return pairwise_hamming(A, B, chunk_rows=chunk_rows, n_jobs=n_jobs) / float(dim)


def euclidean_on_bits(A: np.ndarray, B: Optional[np.ndarray] = None, *, dim: int) -> np.ndarray:
    """Pairwise Euclidean distance treating bits as 0/1 coordinates.

    §II-C notes Euclidean distance "could also be used"; on binary data it
    is exactly ``sqrt(hamming)``, which this exploits instead of unpacking.
    Provided for the distance-metric ablation.
    """
    check_positive_int(dim, "dim")
    d = pairwise_hamming(A, B)
    return np.sqrt(d.astype(np.float64))


def cosine_on_bits(A: np.ndarray, B: Optional[np.ndarray] = None, *, dim: int) -> np.ndarray:
    """Pairwise cosine *distance* on the dense 0/1 representation.

    Included for ablations; computed from popcount identities:
    ``dot(a,b) = (|a| + |b| - hamming(a,b)) / 2`` for binary vectors.
    """
    from repro.core.hypervector import popcount  # local import avoids cycle at module load

    check_positive_int(dim, "dim")
    A = np.asarray(A, dtype=np.uint64)
    Bp = A if B is None else np.asarray(B, dtype=np.uint64)
    ham = pairwise_hamming(A, Bp)
    ones_a = popcount(A).astype(np.float64)
    ones_b = popcount(Bp).astype(np.float64)
    dot = (ones_a[:, None] + ones_b[None, :] - ham) / 2.0
    denom = np.sqrt(ones_a)[:, None] * np.sqrt(ones_b)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = np.where(denom > 0, dot / denom, 0.0)
    return 1.0 - sim


_METRICS = {
    "hamming": lambda A, B, dim: pairwise_hamming(A, B).astype(np.float64),
    "normalized_hamming": lambda A, B, dim: normalized_pairwise_hamming(A, B, dim=dim),
    "euclidean": lambda A, B, dim: euclidean_on_bits(A, B, dim=dim),
    "cosine": lambda A, B, dim: cosine_on_bits(A, B, dim=dim),
}


def pairwise_distance(
    A: np.ndarray,
    B: Optional[np.ndarray] = None,
    *,
    dim: int,
    metric: str = "hamming",
) -> np.ndarray:
    """Dispatch a named pairwise metric over packed batches."""
    check_positive_int(dim, "dim")
    try:
        fn = _METRICS[metric]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(_METRICS)}"
        ) from None
    return fn(A, B, dim)


def available_metrics() -> list[str]:
    """Names accepted by :func:`pairwise_distance`."""
    return sorted(_METRICS)
