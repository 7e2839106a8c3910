"""Online (incremental) HDC classification — the §III-B follow-up loop.

The paper's clinical vision has models that "are self-improving and
self-sustainable by feeding from the data they process" and that update a
patient's risk across follow-up visits.  The classic HDC mechanism for
this is an **integer accumulator per class**: class hypervectors are sums
of member vectors (bit counts), thresholded on demand to a binary
prototype, so single records can be added — and with *retraining*
(Imani-style perceptron updates), misclassified records are added to the
correct class and subtracted from the wrongly-predicted one.

:class:`OnlineHDClassifier` implements that with ``partial_fit`` /
``retrain`` and stays API-compatible with the batch classifiers.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifier import coerce_packed
from repro.core.distance import pairwise_hamming
from repro.core.hypervector import pack_bits, unpack_bits
from repro.ml.base import BaseEstimator, ClassifierMixin, NotFittedError
from repro.utils.validation import check_positive_int, column_or_1d


class OnlineHDClassifier(BaseEstimator, ClassifierMixin):
    """Accumulator-based HDC classifier with incremental updates.

    Parameters
    ----------
    dim:
        Hypervector dimensionality.
    tie:
        Threshold tie rule when an accumulator bit count exactly halves
        the class weight (``"one"`` matches the paper's majority rule).

    Notes
    -----
    State per class: a ``dim``-long int64 bit-count vector and a record
    count.  The binary prototype is ``counts * 2 > n`` (ties per rule).
    ``retrain`` runs perceptron-style epochs: each misclassified training
    record is added to its true class and subtracted from the predicted
    class, the standard HDC retraining loop (Imani et al.), which
    typically lifts prototype accuracy several points.
    """

    def __init__(self, dim: int = 10_000, tie: str = "one") -> None:
        self.dim = check_positive_int(dim, "dim", minimum=2)
        if tie not in ("one", "zero"):
            raise ValueError(f"tie must be 'one' or 'zero', got {tie!r}")
        self.tie = tie

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "OnlineHDClassifier":
        """Reset state and absorb the batch."""
        y = column_or_1d(y)
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ValueError("need at least 2 classes")
        self._counts = np.zeros((self.classes_.size, self.dim), dtype=np.int64)
        self._n = np.zeros(self.classes_.size, dtype=np.int64)
        return self.partial_fit(X, y)

    def partial_fit(self, X, y) -> "OnlineHDClassifier":
        """Absorb more records (classes must be known from ``fit``)."""
        self._check_fitted("_counts")
        packed = coerce_packed(X, self.dim)
        y = column_or_1d(y)
        if packed.shape[0] != y.shape[0]:
            raise ValueError(f"X has {packed.shape[0]} rows but y has {y.shape[0]}")
        dense = unpack_bits(packed, self.dim)
        for i, cls in enumerate(self.classes_):
            members = y == cls
            if members.any():
                self._counts[i] += dense[members].sum(axis=0, dtype=np.int64)
                self._n[i] += int(members.sum())
        unseen = set(np.unique(y).tolist()) - set(self.classes_.tolist())
        if unseen:
            raise ValueError(
                f"labels {sorted(unseen)} were not present at fit time"
            )
        return self

    def _prototypes(self) -> np.ndarray:
        """Threshold accumulators to packed binary prototypes."""
        self._check_fitted("_counts")
        if np.any(self._n <= 0):
            missing = self.classes_[self._n <= 0]
            raise NotFittedError(f"classes {missing.tolist()} have no records yet")
        double = 2 * self._counts
        n = self._n[:, None]
        bits = (double > n).astype(np.uint8)
        if self.tie == "one":
            bits[double == n] = 1
        return pack_bits(bits, self.dim)

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        packed = coerce_packed(X, self.dim)
        protos = self._prototypes()
        d = pairwise_hamming(packed, protos)
        return self.classes_[np.argmin(d, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        packed = coerce_packed(X, self.dim)
        protos = self._prototypes()
        d = pairwise_hamming(packed, protos).astype(np.float64) / self.dim
        logits = -10.0 * d
        logits -= logits.max(axis=1, keepdims=True)
        expd = np.exp(logits)
        return expd / expd.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    def retrain(self, X, y, *, epochs: int = 5) -> "OnlineHDClassifier":
        """Perceptron-style HDC retraining on misclassified records.

        For each epoch, records the current prototypes misclassify are
        *added* to their true class accumulator and *subtracted* from the
        predicted class (bitwise: +bit / -bit per position).  Stops early
        once an epoch is error-free.
        """
        check_positive_int(epochs, "epochs")
        packed = coerce_packed(X, self.dim)
        y = column_or_1d(y)
        if packed.shape[0] != y.shape[0]:
            raise ValueError("X/y length mismatch")
        dense = unpack_bits(packed, self.dim)
        class_index = {cls: i for i, cls in enumerate(self.classes_)}
        self.retrain_errors_: list[int] = []
        for _ in range(epochs):
            pred = self.predict(packed)
            wrong = np.flatnonzero(pred != y)
            self.retrain_errors_.append(int(wrong.size))
            if wrong.size == 0:
                break
            for i in wrong:
                true_i = class_index[y[i]]
                pred_i = class_index[pred[i]]
                self._counts[true_i] += dense[i]
                self._n[true_i] += 1
                self._counts[pred_i] -= dense[i]
                self._n[pred_i] = max(1, self._n[pred_i] - 1)
            # Accumulators may go negative after subtraction; clamp so the
            # threshold rule stays meaningful.
            np.maximum(self._counts, 0, out=self._counts)
        return self

    # ------------------------------------------------------------------
    @property
    def class_counts_(self) -> np.ndarray:
        """Records absorbed per class (affected by retraining updates)."""
        self._check_fitted("_counts")
        return self._n.copy()

    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Fitted accumulator state for :mod:`repro.persist` artifacts.

        The base-class default only captures trailing-underscore
        attributes; the integer accumulators (``_counts`` / ``_n``) are
        the whole point of this classifier, so they are persisted
        explicitly — a loaded instance keeps absorbing follow-ups
        (``partial_fit`` / ``retrain``) exactly where the saved one
        stopped.
        """
        self._check_fitted("_counts")
        return {
            "params": {"dim": self.dim, "tie": self.tie},
            "classes": self.classes_,
            "counts": self._counts,
            "n": self._n,
        }

    def set_state(self, state: dict) -> "OnlineHDClassifier":
        params = state["params"]
        self.__init__(dim=int(params["dim"]), tie=str(params["tie"]))
        self.classes_ = np.asarray(state["classes"])
        self._counts = np.asarray(state["counts"], dtype=np.int64)
        self._n = np.asarray(state["n"], dtype=np.int64)
        if self._counts.shape != (self.classes_.size, self.dim):
            raise ValueError(
                f"counts state must be ({self.classes_.size}, {self.dim}), "
                f"got {self._counts.shape}"
            )
        return self
