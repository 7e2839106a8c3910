"""Streaming top-k Hamming search engine (S4 serving layer).

Every nearest-neighbour path in the repo used to materialise the full
``(m, n)`` int64 distance matrix and full-sort each row.  That is fine at
the paper's 392 Pima rows but hostile at scale: a 100k-record store would
need ~80 GB for one leave-one-out pass.  This module replaces all of it
with a **tiled, streaming top-k engine** that never holds more than one
``(chunk_rows, tile_cols)`` distance block:

* :func:`topk_hamming` — exact k smallest Hamming distances per query,
  processed in (query-tile × candidate-tile) blocks with a running
  per-query top-k merged via ``np.argpartition`` (no full ``argsort``
  anywhere on the streaming path).
* :func:`argmin_hamming` — the ``k=1`` serving path with a running-minimum
  merge (cheaper than the general heap merge).
* :func:`loo_topk_hamming` — the symmetric leave-one-out fast path:
  computes only upper-triangle tiles, mirrors each block into both row
  states, and masks the diagonal with an int64 sentinel (``64*words + 1``,
  larger than any true distance) instead of a float upcast.
* :class:`HDIndex` — an add/remove/query index over packed hypervectors
  with the amortised-append storage idiom of
  :class:`repro.core.itemmemory.ItemMemory`.

Tie-break contract
------------------
All functions here resolve equal distances to the **lowest candidate row
index** (for :class:`HDIndex`, the earliest slot in the current store),
and returned neighbour lists are sorted ascending by ``(distance,
index)``.  This is exactly the order produced by the dense reference
(``pairwise_hamming`` + ``np.argsort(kind="stable")``), so streaming and
dense paths are bit-identical — pinned by ``tests/core/test_search.py``.

Memory bound
------------
Each in-flight tile costs ``chunk_rows * tile_cols * (word_chunk * 9 + 8)``
bytes (XOR temporary + popcount bytes + int64 accumulator); the running
state is ``O(m * k)``.  Workers process disjoint query tiles, so the bound
scales linearly with ``n_jobs`` and nothing ever materialises ``(m, n)``.

Kernel dispatch (PR 7): the per-tile inner loops live in
:mod:`repro.kernels` (``REPRO_KERNEL=numpy|native|auto``).  This module
keeps validation, obs spans, parallel fan-out, and the public API; the
selection/merge machinery (:func:`topk_rows`,
:func:`~repro.kernels.numpy_backend.merge_topk`) moved to the numpy
backend and is re-exported here unchanged.
"""

from __future__ import annotations

from functools import partial
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distance import hamming_block
from repro.core.hypervector import Hypervector, n_words
from repro.kernels import get_backend
from repro.kernels.numpy_backend import (
    _EMPTY,
    merge_topk as _merge_topk,
    topk_rows,
)
from repro.obs import span
from repro.utils.contracts import checks_packed, checks_same_dim
from repro.parallel.chunking import chunk_spans
from repro.parallel.pool import effective_workers, parallel_map

# Engine defaults: with word_chunk=32 a 128x1024 tile keeps the XOR
# temporary at ~32 MB and the popcount working set cache-resident, which
# measures ~2.5x faster than the one-shot dense kernel on one core.
TILE_ROWS = 128
TILE_COLS = 1024
WORD_CHUNK = 32


def vote_counts(votes: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-row label histogram of an ``(m, k)`` int label matrix.

    One flat ``np.bincount`` over ``row * n_classes + label`` replaces the
    former ``np.apply_along_axis(np.bincount, 1, ...)`` per-row Python
    loop.  Returns ``(m, n_classes)`` int64 counts.
    """
    votes = np.asarray(votes, dtype=np.int64)
    if votes.ndim != 2:
        raise ValueError(f"votes must be 2-d, got shape {votes.shape}")
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    if votes.size and (votes.min() < 0 or votes.max() >= n_classes):
        raise ValueError("votes must lie in [0, n_classes)")
    m = votes.shape[0]
    offset = np.arange(m, dtype=np.int64)[:, None] * n_classes
    flat = np.bincount((votes + offset).ravel(), minlength=m * n_classes)
    return flat.reshape(m, n_classes)


def _check_packed_pair(Q: np.ndarray, X: np.ndarray) -> None:
    if Q.ndim != 2 or X.ndim != 2:
        raise ValueError("packed batches must be 2-d (n, words)")
    if Q.shape[1] != X.shape[1]:
        raise ValueError(f"word-count mismatch: {Q.shape[1]} vs {X.shape[1]}")


def _topk_span(
    Q: np.ndarray,
    X: np.ndarray,
    k: int,
    tile_cols: int,
    word_chunk: int,
    span: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    # One query tile vs. the whole store, dispatched by parallel_map.
    return get_backend().topk_hamming_tile(
        Q[span[0] : span[1]], X, k, tile_cols=tile_cols, word_chunk=word_chunk
    )


@checks_same_dim("Q", "X")
def topk_hamming(
    Q: np.ndarray,
    X: np.ndarray,
    k: int,
    *,
    chunk_rows: int = TILE_ROWS,
    tile_cols: int = TILE_COLS,
    word_chunk: int = WORD_CHUNK,
    n_jobs: Optional[int] = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact k nearest candidates (Hamming) for every query, streamed.

    Parameters
    ----------
    Q : (m, words) uint64
        Packed query batch.
    X : (n, words) uint64
        Packed candidate store.
    k:
        Neighbours per query; clamped to ``n``.
    chunk_rows, tile_cols:
        Query/candidate tile geometry; bounds peak memory at
        ``chunk_rows * tile_cols * (word_chunk * 9 + 8)`` bytes per worker.
        Results are invariant to the geometry.
    word_chunk:
        Words per popcount slice inside a tile (see
        :func:`repro.core.distance.hamming_block`).
    n_jobs:
        Worker threads for query-tile dispatch; ``None``/0 defers to
        ``REPRO_WORKERS``.

    Returns
    -------
    (distances, indices):
        int64 arrays of shape ``(m, k)``; each row ascending by
        ``(distance, index)`` with ties to the lowest candidate index.
    """
    Q = np.ascontiguousarray(Q, dtype=np.uint64)
    X = np.ascontiguousarray(X, dtype=np.uint64)
    _check_packed_pair(Q, X)
    if X.shape[0] == 0:
        raise ValueError("topk_hamming needs at least one candidate row")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, X.shape[0])
    with span(
        "search.topk",
        queries=Q.shape[0],
        candidates=X.shape[0],
        k=k,
        kernel=get_backend().name,
    ):
        spans = chunk_spans(Q.shape[0], chunk_rows)
        if not spans:
            empty = np.empty((0, k), dtype=np.int64)
            return empty, empty.copy()
        worker = partial(_topk_span, Q, X, k, tile_cols, word_chunk)
        parts = parallel_map(worker, spans, n_jobs=n_jobs)
        return (
            np.concatenate([d for d, _ in parts], axis=0),
            np.concatenate([i for _, i in parts], axis=0),
        )


def argmin_hamming(
    Q: np.ndarray,
    X: np.ndarray,
    *,
    chunk_rows: int = TILE_ROWS,
    tile_cols: int = TILE_COLS,
    word_chunk: int = WORD_CHUNK,
    n_jobs: Optional[int] = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest candidate per query — the ``k=1`` serving path.

    Returns ``(distances, indices)`` 1-d int64 arrays of length ``m``;
    ties resolve to the lowest candidate index.
    """
    d, i = topk_hamming(
        Q,
        X,
        1,
        chunk_rows=chunk_rows,
        tile_cols=tile_cols,
        word_chunk=word_chunk,
        n_jobs=n_jobs,
    )
    return d[:, 0], i[:, 0]


def topk_hamming_reference(
    Q: np.ndarray, X: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense reference for :func:`topk_hamming`: full matrix + stable sort.

    Materialises the whole ``(m, n)`` distance matrix; kept only as the
    differential-test oracle and for tiny inputs.
    """
    from repro.core.distance import pairwise_hamming

    Q = np.asarray(Q, dtype=np.uint64)
    X = np.asarray(X, dtype=np.uint64)
    _check_packed_pair(Q, X)
    if X.shape[0] == 0:
        raise ValueError("topk_hamming needs at least one candidate row")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, X.shape[0])
    D = pairwise_hamming(Q, X)
    idx = np.argsort(D, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(D, idx, axis=1), idx


# ----------------------------------------------------------------------
# Symmetric leave-one-out fast path
# ----------------------------------------------------------------------
def _loo_block(
    X: np.ndarray,
    rspan: Tuple[int, int],
    word_chunk: int,
    cspan: Tuple[int, int],
) -> np.ndarray:
    return hamming_block(X[rspan[0] : rspan[1]], X[cspan[0] : cspan[1]], word_chunk=word_chunk)


def _loo_span(
    X: np.ndarray,
    k: int,
    tile_cols: int,
    word_chunk: int,
    rspan: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    # Fused-backend worker: one row span's whole leave-one-out scan in a
    # single backend call.
    return get_backend().loo_topk_hamming_tile(
        X, rspan[0], rspan[1], k, tile_cols=tile_cols, word_chunk=word_chunk
    )


@checks_packed("X")
def loo_topk_hamming(
    X: np.ndarray,
    k: int = 1,
    *,
    chunk_rows: int = 256,
    word_chunk: int = WORD_CHUNK,
    n_jobs: Optional[int] = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """k nearest *other* rows for every row of ``X`` (leave-one-out).

    Exploits symmetry: only upper-triangle tiles are computed, and each
    off-diagonal block updates both its row tile and (transposed) its
    column tile.  Diagonal tiles mask self-distances with the int64
    sentinel ``64 * words + 1`` — greater than any true distance, so a
    self-match can never enter the top-k (``k`` is clamped to ``n - 1``).
    No float upcast and no ``(n, n)`` matrix are ever materialised; peak
    memory is the tile blocks in flight plus the ``(n, k)`` running state.

    Tile pairs are visited so that every row receives its candidate tiles
    in ascending-index order, preserving the lowest-index tie-break
    contract.  Returns ``(distances, indices)`` of shape ``(n, k)``.

    Fused backends (``REPRO_KERNEL=native``) skip the mirrored-triangle
    walk entirely: each row span's scan runs in one compiled call with
    the self-match excluded inside the kernel.  Results are bit-identical
    either way.
    """
    X = np.ascontiguousarray(X, dtype=np.uint64)
    if X.ndim != 2:
        raise ValueError("packed batch must be 2-d (n, words)")
    n, words = X.shape
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 rows")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n - 1)
    backend = get_backend()
    if backend.fused:
        # Fused backends run a whole row span's leave-one-out scan in one
        # call (self-matches skipped inside the kernel); row spans fan
        # straight out to workers.  The mirrored-triangle walk below
        # halves the popcount work, which only pays when each block costs
        # a fresh XOR temporary — a compiled kernel re-reads X from cache
        # faster than the merge bookkeeping it would save.
        with span("search.loo_topk", rows=n, k=k, kernel=backend.name):
            worker = partial(_loo_span, X, k, TILE_COLS, word_chunk)
            parts = parallel_map(worker, chunk_spans(n, chunk_rows), n_jobs=n_jobs)
            return (
                np.concatenate([d for d, _ in parts], axis=0),
                np.concatenate([i for _, i in parts], axis=0),
            )
    sentinel = np.int64(64 * words + 1)
    best_d = np.full((n, k), _EMPTY, dtype=np.int64)
    best_i = np.full((n, k), -1, dtype=np.int64)
    group = effective_workers(n_jobs)
    with span("search.loo_topk", rows=n, k=k, kernel=backend.name):
        for r0, r1 in chunk_spans(n, chunk_rows):
            # Diagonal tile: covers all intra-tile pairs (both orientations),
            # with self-distances masked out.
            diag = hamming_block(X[r0:r1], X[r0:r1], word_chunk=word_chunk)
            np.fill_diagonal(diag, sentinel)
            best_d[r0:r1], best_i[r0:r1] = _merge_topk(
                best_d[r0:r1], best_i[r0:r1], diag, r0
            )
            # Strictly-upper tiles, in batches of `group` so parallel block
            # computation never holds more than `group` tiles at once.
            cspans = chunk_spans(n - r1, chunk_rows)
            cspans = [(r1 + a, r1 + b) for a, b in cspans]
            for g0 in range(0, len(cspans), group):
                batch = cspans[g0 : g0 + group]
                blocks = parallel_map(
                    partial(_loo_block, X, (r0, r1), word_chunk), batch, n_jobs=n_jobs
                )
                for (c0, c1), block in zip(batch, blocks):
                    best_d[r0:r1], best_i[r0:r1] = _merge_topk(
                        best_d[r0:r1], best_i[r0:r1], block, c0
                    )
                    best_d[c0:c1], best_i[c0:c1] = _merge_topk(
                        best_d[c0:c1],
                        best_i[c0:c1],
                        np.ascontiguousarray(block.T),
                        r0,
                    )
    return best_d, best_i


def loo_topk_hamming_reference(
    X: np.ndarray, k: int = 1, *, chunk_rows: int = 128
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense reference for :func:`loo_topk_hamming`.

    Full ``(n, n)`` int64 matrix with the same int64 diagonal sentinel
    (no float upcast) and a stable full sort.  Differential-test oracle.
    """
    from repro.core.distance import pairwise_hamming

    X = np.asarray(X, dtype=np.uint64)
    if X.ndim != 2:
        raise ValueError("packed batch must be 2-d (n, words)")
    n, words = X.shape
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 rows")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n - 1)
    D = pairwise_hamming(X, chunk_rows=chunk_rows)
    np.fill_diagonal(D, np.int64(64 * words + 1))
    idx = np.argsort(D, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(D, idx, axis=1), idx


# ----------------------------------------------------------------------
# Serving-layer index
# ----------------------------------------------------------------------
class HDIndex:
    """Add/remove/query nearest-neighbour index over packed hypervectors.

    The store is one contiguous packed matrix grown with amortised
    capacity doubling (the same storage idiom as
    :class:`repro.core.itemmemory.ItemMemory`); removal swaps the last
    row into the vacated slot, so the store stays dense and ``remove`` is
    O(1).  Queries stream through :func:`topk_hamming` /
    :func:`argmin_hamming`, so memory stays bounded by the tile geometry
    regardless of index size.

    Tie-break: equal distances resolve to the earliest *slot* in the
    current store.  Removals reorder slots (swap-with-last), so after a
    removal the tie order may differ from insertion order — document and
    persist keys, not slots, if exact tie order matters across removals.

    Examples
    --------
    >>> from repro.core.hypervector import Hypervector
    >>> idx = HDIndex(dim=128)
    >>> a = Hypervector.random(128, seed=1)
    >>> idx.add("a", a)
    >>> idx.query_argmin(a.packed[None, :])
    (['a'], array([0]))
    """

    def __init__(
        self,
        dim: int,
        *,
        chunk_rows: int = TILE_ROWS,
        tile_cols: int = TILE_COLS,
        word_chunk: int = WORD_CHUNK,
        n_jobs: Optional[int] = 1,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.chunk_rows = chunk_rows
        self.tile_cols = tile_cols
        self.word_chunk = word_chunk
        self.n_jobs = n_jobs
        self._keys: List[Hashable] = []
        self._slot: dict = {}
        self._buf = np.empty((0, n_words(dim)), dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slot

    @property
    def keys(self) -> List[Hashable]:
        return list(self._keys)

    @property
    def packed_matrix(self) -> np.ndarray:
        """Read-only view of the live store, ``(len(self), words)``."""
        view = self._buf[: len(self._keys)]
        view.flags.writeable = False
        return view

    @property
    def _packed(self) -> np.ndarray:
        return self._buf[: len(self._keys)]

    def _reserve(self, extra: int) -> None:
        need = len(self._keys) + extra
        if need <= self._buf.shape[0]:
            return
        capacity = max(need, 2 * self._buf.shape[0], 8)
        grown = np.empty((capacity, n_words(self.dim)), dtype=np.uint64)
        grown[: len(self._keys)] = self._packed
        self._buf = grown

    def _ensure_writable(self) -> None:
        # Copy-on-write for adopted read-only stores (mmap'ed artifacts):
        # queries run zero-copy against the mapped pages, and the first
        # mutation promotes the store to a private heap copy.
        if not self._buf.flags.writeable:
            self._buf = np.array(self._buf, dtype=np.uint64)

    def _coerce_row(self, hv) -> np.ndarray:
        if isinstance(hv, Hypervector):
            if hv.dim != self.dim:
                raise ValueError(
                    f"dimension mismatch: index={self.dim}, item={hv.dim}"
                )
            return hv.packed
        arr = np.asarray(hv, dtype=np.uint64)
        if arr.shape != (n_words(self.dim),):
            raise ValueError(
                f"packed item must have shape ({n_words(self.dim)},), got {arr.shape}"
            )
        return arr

    def _coerce_queries(self, Q) -> np.ndarray:
        from repro.core.classifier import coerce_packed  # lazy: avoids cycle

        return coerce_packed(Q, self.dim)

    def add(self, key: Hashable, hv) -> None:
        """Insert or overwrite the vector stored under ``key``."""
        packed = self._coerce_row(hv)
        self._ensure_writable()
        if key in self._slot:
            self._buf[self._slot[key]] = packed
            return
        self._reserve(1)
        self._buf[len(self._keys)] = packed
        self._slot[key] = len(self._keys)
        self._keys.append(key)

    def add_batch(self, keys: Sequence[Hashable], packed: np.ndarray) -> None:
        """Bulk insert of a packed ``(len(keys), words)`` batch."""
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.ndim != 2 or packed.shape[0] != len(keys):
            raise ValueError("packed must be (len(keys), words)")
        if packed.shape[1] != n_words(self.dim):
            raise ValueError("word-count mismatch with index dim")
        self._ensure_writable()
        self._reserve(len(keys))
        for i, key in enumerate(keys):
            if key in self._slot:
                self._buf[self._slot[key]] = packed[i]
            else:
                self._buf[len(self._keys)] = packed[i]
                self._slot[key] = len(self._keys)
                self._keys.append(key)

    def remove(self, key: Hashable) -> None:
        """Delete ``key`` in O(1) by swapping the last row into its slot."""
        if key not in self._slot:
            raise KeyError(f"unknown item {key!r}")
        self._ensure_writable()
        slot = self._slot.pop(key)
        last = len(self._keys) - 1
        if slot != last:
            self._buf[slot] = self._buf[last]
            moved = self._keys[last]
            self._keys[slot] = moved
            self._slot[moved] = slot
        self._keys.pop()

    def get(self, key: Hashable) -> Hypervector:
        if key not in self._slot:
            raise KeyError(f"unknown item {key!r}")
        return Hypervector(self._buf[self._slot[key]].copy(), self.dim)

    def query_topk(
        self, Q, k: int
    ) -> Tuple[List[List[Hashable]], np.ndarray]:
        """k nearest stored keys per query row.

        Returns ``(keys, distances)``: ``keys[i]`` lists the k nearest
        stored keys to query ``i`` ascending by ``(distance, slot)``, and
        ``distances`` is the matching ``(m, k)`` int64 array.
        """
        if not self._keys:
            raise ValueError("query on an empty HDIndex")
        Qp = self._coerce_queries(Q)
        with span("index.query_topk", queries=Qp.shape[0], size=len(self._keys), k=k):
            d, idx = topk_hamming(
                Qp,
                self._packed,
                k,
                chunk_rows=self.chunk_rows,
                tile_cols=self.tile_cols,
                word_chunk=self.word_chunk,
                n_jobs=self.n_jobs,
            )
            keys = [[self._keys[int(j)] for j in row] for row in idx]
            return keys, d

    # -- persistence hooks (repro.persist) -----------------------------
    def get_state(self) -> dict:
        """Keys + live packed store (slot order preserved bit-exactly)."""
        return {
            "params": {
                "dim": self.dim,
                "chunk_rows": self.chunk_rows,
                "tile_cols": self.tile_cols,
                "word_chunk": self.word_chunk,
                "n_jobs": self.n_jobs,
            },
            "keys": list(self._keys),
            "packed": self._packed.copy(),
        }

    def set_state(self, state: dict) -> "HDIndex":
        params = state["params"]
        self.__init__(
            params["dim"],
            chunk_rows=params["chunk_rows"],
            tile_cols=params["tile_cols"],
            word_chunk=params["word_chunk"],
            n_jobs=params["n_jobs"],
        )
        keys = list(state["keys"])
        packed = np.asarray(state["packed"], dtype=np.uint64)
        if not keys:
            return self
        if packed.ndim != 2 or packed.shape != (len(keys), n_words(self.dim)):
            raise ValueError(
                f"packed state must be ({len(keys)}, {n_words(self.dim)}), "
                f"got {packed.shape}"
            )
        if len(set(keys)) != len(keys):
            # Duplicate keys need overwrite semantics — take the copy path.
            self.add_batch(keys, packed)
            return self
        # Adopt the array zero-copy (an mmap'ed artifact payload stays a
        # shared read-only map; _ensure_writable promotes it on mutation).
        self._buf = packed
        self._keys = keys
        self._slot = {key: i for i, key in enumerate(keys)}
        return self

    def query_argmin(self, Q) -> Tuple[List[Hashable], np.ndarray]:
        """Nearest stored key per query row: ``(keys, distances)``."""
        if not self._keys:
            raise ValueError("query on an empty HDIndex")
        with span("index.query_argmin", size=len(self._keys)):
            d, idx = argmin_hamming(
                self._coerce_queries(Q),
                self._packed,
                chunk_rows=self.chunk_rows,
                tile_cols=self.tile_cols,
                word_chunk=self.word_chunk,
                n_jobs=self.n_jobs,
            )
            return [self._keys[int(j)] for j in idx], d

