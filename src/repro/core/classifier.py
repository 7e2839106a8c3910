"""Pure-HDC classifiers (S4) — §II-C's Hamming-distance model.

Two models:

* :class:`HammingClassifier` — the paper's model: store every training
  record hypervector; classify a query as the class of its nearest
  neighbour under Hamming distance (``n_neighbors=1`` default; k-NN
  voting is an optional extension).
* :class:`PrototypeClassifier` — the classic HDC "class hypervector"
  variant (Kleyko et al.): bundle all training vectors of one class into a
  single prototype with majority vote, then classify by nearest prototype.
  Mentioned-adjacent in the HDC literature the paper builds on; included
  as an extension and ablation baseline.

Both accept either packed ``(n, words)`` uint64 batches (native) or dense
0/1 matrices (auto-packed), so they slot into the same evaluation grid as
the ML models.

Leave-one-out evaluation (the paper's validation for this model) lives in
:func:`repro.eval.crossval.leave_one_out_hamming`, which streams the
symmetric distance computation tile-by-tile instead of refitting n times —
the algorithmic advantage §II-C highlights ("once the hypervectors are
constructed there's no model that needs to be built").  Inference here
likewise streams through :mod:`repro.core.search`, so neither path ever
materialises a full distance matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bundling import majority_vote
from repro.core.distance import pairwise_distance, pairwise_hamming
from repro.core.hypervector import n_words, pack_bits
from repro.core.search import (
    argmin_hamming,
    topk_hamming,
    topk_rows,
    vote_counts,
)
from repro.ml.base import BaseEstimator, ClassifierMixin
from repro.utils.validation import check_positive_int, column_or_1d


def coerce_packed(X, dim: int) -> np.ndarray:
    """Accept packed uint64 or dense 0/1 input; return packed ``(n, words)``."""
    arr = np.asarray(X)
    if arr.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {arr.shape}")
    if arr.dtype == np.uint64 and arr.shape[1] == n_words(dim):
        # Treat as already packed — unless it is actually a dense 0/1 matrix
        # whose width coincides with the word count (only possible for tiny
        # dims; packed batches for real dims are far narrower than dense).
        if dim > 64 or arr.shape[1] != dim:
            return np.ascontiguousarray(arr)
    if arr.shape[1] == dim:
        vals = np.unique(arr)
        if not set(vals.tolist()) <= {0, 1}:
            raise ValueError("dense hypervector input must be 0/1")
        return pack_bits(arr.astype(np.uint8), dim)
    raise ValueError(
        f"X width {arr.shape[1]} matches neither packed ({n_words(dim)}) nor "
        f"dense ({dim}) layout for dim={dim}"
    )


class HammingClassifier(BaseEstimator, ClassifierMixin):
    """Nearest-neighbour classification in Hamming space (§II-C).

    Parameters
    ----------
    dim:
        Hypervector dimensionality.
    n_neighbors:
        1 reproduces the paper ("the known class of the closest
        hypervector"); larger values majority-vote over the k nearest.
    metric:
        Distance metric name (see ``repro.core.distance.available_metrics``);
        the paper uses ``"hamming"``.
    chunk_rows:
        Query-tile rows for the streaming engine (and row blocking for the
        dense fallback kernel) — a memory bound, never a semantics knob.
    tile_cols:
        Candidate-tile columns for the streaming engine.
    n_jobs:
        Worker threads for query-tile dispatch (``None``/0 defers to
        ``REPRO_WORKERS``).

    Notes
    -----
    With ``metric="hamming"`` (the paper's setting) prediction streams
    through :func:`repro.core.search.topk_hamming` and never materialises
    the ``(m, n_train)`` distance matrix.  Other metrics fall back to the
    dense matrix but select neighbours with ``np.argpartition`` + an
    in-slice stable sort rather than a full row sort.  All paths resolve
    distance ties to the lowest training-row index (the order of
    ``np.argsort(kind="stable")``) and are pinned bit-identical to
    :meth:`predict_reference` / :meth:`predict_proba_reference` by
    ``tests/core/test_search.py``.
    """

    def __init__(
        self,
        dim: int = 10_000,
        n_neighbors: int = 1,
        metric: str = "hamming",
        chunk_rows: int = 64,
        tile_cols: int = 1024,
        n_jobs: Optional[int] = 1,
    ) -> None:
        self.dim = check_positive_int(dim, "dim", minimum=2)
        self.n_neighbors = check_positive_int(n_neighbors, "n_neighbors")
        self.metric = metric
        self.chunk_rows = check_positive_int(chunk_rows, "chunk_rows")
        self.tile_cols = check_positive_int(tile_cols, "tile_cols")
        self.n_jobs = n_jobs

    def fit(self, X, y) -> "HammingClassifier":
        """Store the training hypervectors; no optimisation happens."""
        packed = coerce_packed(X, self.dim)
        y = column_or_1d(y)
        if packed.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {packed.shape[0]} rows but y has {y.shape[0]}"
            )
        if packed.shape[0] < self.n_neighbors:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} exceeds training size "
                f"{packed.shape[0]}"
            )
        self.y_train_ = self._encode_labels(y)
        self.X_train_ = packed
        return self

    def decision_distances(self, X) -> np.ndarray:
        """Distance matrix from queries to every training record."""
        self._check_fitted("X_train_")
        packed = coerce_packed(X, self.dim)
        return pairwise_distance(packed, self.X_train_, dim=self.dim, metric=self.metric)

    def _neighbors(self, X) -> np.ndarray:
        """Indices of the ``n_neighbors`` nearest training rows per query.

        Streams through the top-k engine for Hamming; other metrics use
        the dense matrix with partition-based selection.  Either way each
        row is ascending by ``(distance, train index)``.
        """
        self._check_fitted("X_train_")
        packed = coerce_packed(X, self.dim)
        k = self.n_neighbors
        if self.metric == "hamming":
            _, idx = topk_hamming(
                packed,
                self.X_train_,
                k,
                chunk_rows=self.chunk_rows,
                tile_cols=self.tile_cols,
                n_jobs=self.n_jobs,
            )
            return idx
        dists = pairwise_distance(
            packed, self.X_train_, dim=self.dim, metric=self.metric
        )
        _, idx = topk_rows(dists, min(k, dists.shape[1]))
        return idx

    def predict(self, X) -> np.ndarray:
        if self.n_neighbors == 1:
            if self.metric == "hamming":
                self._check_fitted("X_train_")
                _, idx = argmin_hamming(
                    coerce_packed(X, self.dim),
                    self.X_train_,
                    chunk_rows=self.chunk_rows,
                    tile_cols=self.tile_cols,
                    n_jobs=self.n_jobs,
                )
            else:
                idx = np.argmin(self.decision_distances(X), axis=1)
            return self._decode_labels(self.y_train_[idx])
        votes = self.y_train_[self._neighbors(X)]
        counts = vote_counts(votes, self.classes_.size)
        return self._decode_labels(np.argmax(counts, axis=1))

    def predict_proba(self, X) -> np.ndarray:
        """Neighbour-vote class frequencies (soft output for the grid)."""
        votes = self.y_train_[self._neighbors(X)]
        counts = vote_counts(votes, self.classes_.size).astype(np.float64)
        return counts / counts.sum(axis=1, keepdims=True)

    def predict_reference(self, X) -> np.ndarray:
        """Dense-matrix reference prediction (full stable sort).

        Semantics oracle for the streaming path; materialises the whole
        ``(m, n_train)`` matrix, so use only at test scale.
        """
        dists = self.decision_distances(X)
        if self.n_neighbors == 1:
            return self._decode_labels(self.y_train_[np.argmin(dists, axis=1)])
        order = np.argsort(dists, axis=1, kind="stable")[:, : self.n_neighbors]
        counts = vote_counts(self.y_train_[order], self.classes_.size)
        return self._decode_labels(np.argmax(counts, axis=1))

    def predict_proba_reference(self, X) -> np.ndarray:
        """Dense-matrix reference for :meth:`predict_proba`."""
        dists = self.decision_distances(X)
        order = np.argsort(dists, axis=1, kind="stable")[:, : self.n_neighbors]
        counts = vote_counts(self.y_train_[order], self.classes_.size).astype(
            np.float64
        )
        return counts / counts.sum(axis=1, keepdims=True)


class PrototypeClassifier(BaseEstimator, ClassifierMixin):
    """Bundle-per-class HDC classifier (extension beyond the paper).

    Training bundles all hypervectors of each class into one prototype by
    bitwise majority; inference is nearest-prototype in Hamming space.
    O(1) memory per class and a single distance row per query — the
    cheapest possible HDC model, a useful lower anchor in ablations.
    """

    def __init__(self, dim: int = 10_000, tie: str = "one") -> None:
        self.dim = check_positive_int(dim, "dim", minimum=2)
        self.tie = tie

    def fit(self, X, y) -> "PrototypeClassifier":
        packed = coerce_packed(X, self.dim)
        y = column_or_1d(y)
        if packed.shape[0] != y.shape[0]:
            raise ValueError(f"X has {packed.shape[0]} rows but y has {y.shape[0]}")
        encoded = self._encode_labels(y)
        prototypes = []
        for c in range(self.classes_.size):
            members = packed[encoded == c]
            prototypes.append(majority_vote(members, self.dim, tie=self.tie))
        self.prototypes_ = np.stack(prototypes)
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("prototypes_")
        packed = coerce_packed(X, self.dim)
        _, idx = argmin_hamming(packed, self.prototypes_)
        return self._decode_labels(idx)

    def predict_proba(self, X) -> np.ndarray:
        """Softmax over negative normalised distances (monotone surrogate)."""
        self._check_fitted("prototypes_")
        packed = coerce_packed(X, self.dim)
        dists = pairwise_hamming(packed, self.prototypes_) / float(self.dim)
        logits = -dists * 10.0  # temperature chosen so 0.5-vs-0.4 separates visibly
        logits -= logits.max(axis=1, keepdims=True)
        expd = np.exp(logits)
        return expd / expd.sum(axis=1, keepdims=True)
