"""Record (patient) encoding pipeline (S3) — dataset matrix → hypervectors.

This is the end-to-end implementation of §II-B: each column of a tabular
dataset gets its own independently-seeded encoder (linear for continuous
columns, seed/orthogonal for binary columns, item memory for categorical
ones); a row's feature hypervectors are bundled by bitwise majority
(ties → 1) into one record hypervector.

:class:`RecordEncoder` is the object the rest of the library (and the
paper's experiments) use: ``fit`` on a training matrix, then ``transform``
any matrix into a packed ``(n, words)`` batch — or, via
``transform_dense``, into the 0/1 matrix fed to the downstream ML models
(the "hypervectors as features" hybrid of §II-D).

Fused fast path
---------------
``transform`` streams row chunks through a fused encode→bundle pipeline
that never leaves the packed domain: each column's values are quantised to
rows of that column's precomputed packed level/codebook table (one
advanced-indexing gather, no per-value bit flipping), and the gathered
``(rows, m, words)`` stack is majority-bundled on ``uint64`` words with
carry-save bit-plane counters (:func:`repro.core.bundling.majority_vote_batch`).
Row chunks are dispatched through :func:`repro.parallel.parallel_map`,
governed by the ``n_jobs`` / ``chunk_rows`` constructor arguments.

``transform_reference`` keeps the original per-row, per-value construction
(schedule-prefix bit flips, full feature stack) and bundles by a dense
integer sum, so the two implementations share no bundling code and can be
diffed bit-for-bit; the differential suite in
``tests/core/test_fused_encoding.py`` does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bundling import _break_ties, _majority_and_ties
from repro.core.encoding import BaseEncoder, BinaryEncoder, CategoricalEncoder, LevelEncoder
from repro.core.hypervector import n_words, pack_bits, unpack_bits
# Aliased because `span` is the local name for (start, stop) row ranges
# throughout this module.
from repro.obs import span as span_ctx
from repro.parallel import chunk_spans, parallel_map
from repro.utils.rng import SeedLike, as_generator, derive_seed
from repro.utils.validation import check_array, check_positive_int

FEATURE_KINDS = ("linear", "binary", "categorical")


@dataclass(frozen=True)
class FeatureSpec:
    """Declarative description of one column.

    Attributes
    ----------
    name:
        Column name (used in error messages and reports).
    kind:
        ``"linear"`` (continuous, level-encoded), ``"binary"`` (0/1,
        seed/orthogonal pair) or ``"categorical"`` (item memory).
    levels:
        Optional level quantisation for linear columns (ablation knob).
    """

    name: str
    kind: str = "linear"
    levels: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise ValueError(
                f"feature {self.name!r}: kind must be one of {FEATURE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.levels is not None and self.kind != "linear":
            raise ValueError(f"feature {self.name!r}: levels only applies to linear kind")


def infer_feature_specs(
    X: np.ndarray, names: Optional[Sequence[str]] = None, *, max_binary_card: int = 2
) -> List[FeatureSpec]:
    """Heuristically derive specs: columns with <=2 distinct values are binary."""
    X = check_array(X, dtype=np.float64, name="X")
    cols = X.shape[1]
    names = list(names) if names is not None else [f"f{i}" for i in range(cols)]
    if len(names) != cols:
        raise ValueError(f"got {len(names)} names for {cols} columns")
    specs = []
    for j, name in enumerate(names):
        uniq = np.unique(X[:, j])
        if uniq.size <= max_binary_card and set(uniq.tolist()) <= {0.0, 1.0}:
            specs.append(FeatureSpec(name, "binary"))
        else:
            specs.append(FeatureSpec(name, "linear"))
    return specs


class RecordEncoder:
    """Encode tabular rows into bundled record hypervectors.

    Parameters
    ----------
    specs:
        One :class:`FeatureSpec` per column, or ``None`` to infer binary vs
        linear kinds from the training data at ``fit`` time.
    dim:
        Hypervector dimensionality (paper: 10,000).
    seed:
        Master seed.  Each column derives an independent sub-seed via
        :func:`repro.utils.rng.derive_seed`, satisfying the paper's "each
        feature has a different seed hypervector" requirement while staying
        reproducible from a single integer.
    tie:
        Majority-vote tie rule (paper default ``"one"``).
    bind_ids:
        The paper bundles feature hypervectors directly (its per-feature
        random seeds already separate the features).  ``bind_ids=True``
        switches to the other canonical HDC record construction —
        ``bundle_i( ID_i XOR value_i )`` with a random identity vector per
        column — exposed for the encoding ablation.  With independently
        seeded encoders the two are statistically equivalent; binding IDs
        matters when feature encoders *share* item memories.
    n_jobs:
        Worker count for chunk dispatch in :meth:`transform` (``1`` =
        serial; ``None``/``0`` defers to the ``REPRO_WORKERS`` environment
        variable, negative counts are sklearn-style).  The chunks are
        NumPy-bound and release the GIL, so the thread backend scales
        without pickling.
    chunk_rows:
        Rows per dispatched chunk.  Peak temporary memory per worker is
        one gathered ``chunk_rows x n_features x words`` stack plus a few
        ``chunk_rows x words`` bit-planes.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[1.0, 0], [5.0, 1], [9.0, 0]])
    >>> enc = RecordEncoder(dim=256, seed=7).fit(X)
    >>> enc.transform(X).shape
    (3, 4)
    >>> enc.transform_dense(X).shape
    (3, 256)
    """

    def __init__(
        self,
        specs: Optional[Sequence[FeatureSpec]] = None,
        *,
        dim: int = 10_000,
        seed: SeedLike = 0,
        tie: str = "one",
        bind_ids: bool = False,
        n_jobs: Optional[int] = 1,
        chunk_rows: int = 2048,
    ) -> None:
        self.specs = list(specs) if specs is not None else None
        self.dim = check_positive_int(dim, "dim", minimum=2)
        self.seed = seed
        self.tie = tie
        self.bind_ids = bind_ids
        self.n_jobs = n_jobs
        self.chunk_rows = check_positive_int(chunk_rows, "chunk_rows", minimum=1)
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "RecordEncoder":
        """Fit one encoder per column on the training matrix."""
        with span_ctx("encode.fit", dim=self.dim):
            return self._fit(X)

    def _fit(self, X: np.ndarray) -> "RecordEncoder":
        X = check_array(X, dtype=np.float64, name="X")
        if self.specs is None:
            self.specs_: List[FeatureSpec] = infer_feature_specs(X)
        else:
            if len(self.specs) != X.shape[1]:
                raise ValueError(
                    f"{len(self.specs)} specs for {X.shape[1]} columns"
                )
            self.specs_ = list(self.specs)
        self.encoders_: List[BaseEncoder] = []
        for j, spec in enumerate(self.specs_):
            sub_seed = derive_seed(self.seed, "feature", j, spec.name)
            col = X[:, j]
            enc: BaseEncoder
            if spec.kind == "linear":
                enc = LevelEncoder(self.dim, sub_seed, levels=spec.levels).fit(col)
            elif spec.kind == "binary":
                enc = BinaryEncoder(self.dim, sub_seed).fit(col)
            else:
                enc = CategoricalEncoder(self.dim, sub_seed).fit(col)
            self.encoders_.append(enc)
        if self.bind_ids:
            from repro.core.hypervector import exact_half_dense

            self.id_vectors_ = np.stack(
                [
                    exact_half_dense(self.dim, derive_seed(self.seed, "feature-id", j))
                    for j in range(len(self.specs_))
                ]
            )
        self._fitted = True
        return self

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("RecordEncoder must be fitted before transform")

    # ------------------------------------------------------------------
    def encode_features(self, X: np.ndarray) -> np.ndarray:
        """Per-feature hypervectors, shape ``(n, n_features, words)``.

        Exposed separately so ablations can inspect or re-weight the
        feature layer before bundling.
        """
        X = self._check_transform_input(X)
        n = X.shape[0]
        out = np.empty((n, len(self.encoders_), n_words(self.dim)), dtype=np.uint64)
        for j, enc in enumerate(self.encoders_):
            out[:, j, :] = enc.encode_batch(X[:, j])
        if self.bind_ids:
            # XOR each column's value vectors with that column's identity.
            out ^= self.id_vectors_[None, :, :]
        return out

    def _check_transform_input(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_array(X, dtype=np.float64, name="X")
        if X.shape[1] != len(self.encoders_):
            raise ValueError(
                f"X has {X.shape[1]} columns, encoder was fitted with "
                f"{len(self.encoders_)}"
            )
        return X

    def _vote_chunk(
        self, X: np.ndarray, span: Tuple[int, int]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Packed majority (and random-tie mask) for one row chunk."""
        start, stop = span
        with span_ctx("encode.count_chunk", rows=stop - start):
            feats = self.encode_features(X[start:stop])
            return _majority_and_ties(feats, self.tie)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Bundled record hypervectors, packed ``(n, words)``.

        Encodes and bundles row chunks of ``chunk_rows`` on ``n_jobs``
        workers.  Output is bit-identical to :meth:`transform_reference`
        regardless of chunking or worker count.
        """
        X = self._check_transform_input(X)
        with span_ctx(
            "encode.transform",
            rows=X.shape[0],
            features=len(self.encoders_),
            dim=self.dim,
            chunk_rows=self.chunk_rows,
        ):
            blocks = parallel_map(
                partial(self._vote_chunk, X),
                chunk_spans(X.shape[0], self.chunk_rows),
                n_jobs=self.n_jobs,
            )
            out = np.concatenate([maj for maj, _ in blocks], axis=0)
            if blocks[0][1] is None:
                return out
            # The random tie rule draws one RNG stream over the whole batch
            # (row-major), so the output does not depend on the chunking.
            tied = np.concatenate([ties for _, ties in blocks], axis=0)
            return _break_ties(out, tied, self.dim, self.seed)

    def transform_reference(self, X: np.ndarray) -> np.ndarray:
        """The per-row, per-value path, kept as a bit-exact oracle.

        Encodes every value from scratch (per-value schedule-prefix bit
        flips, no cached tables), unpacks the full ``(n, m, dim)`` feature
        tensor and thresholds its integer sum — the plain definition of
        the majority, sharing no bundling code with :meth:`transform`.
        Slow by design; used by the differential tests and benchmarks.
        """
        X = self._check_transform_input(X)
        n, m = X.shape[0], len(self.encoders_)
        feats = np.empty((n, m, n_words(self.dim)), dtype=np.uint64)
        for i in range(n):
            for j, enc in enumerate(self.encoders_):
                feats[i, j] = enc.encode(X[i, j])
        if self.bind_ids:
            feats ^= self.id_vectors_[None, :, :]
        counts = unpack_bits(feats, self.dim).sum(axis=1, dtype=np.int64)
        out = 2 * counts > m
        tied = 2 * counts == m
        if self.tie == "one":
            out |= tied
        elif self.tie == "random":
            rng = as_generator(self.seed)
            out[tied] = rng.integers(0, 2, size=int(tied.sum()), dtype=np.uint8)
        return pack_bits(out, self.dim)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def transform_dense(self, X: np.ndarray) -> np.ndarray:
        """Record hypervectors as a dense 0/1 ``(n, dim)`` uint8 matrix.

        This is the §II-D hybrid input: hypervector bits as ML features.
        """
        return unpack_bits(self.transform(X), self.dim)

    # -- persistence hooks (repro.persist) -----------------------------
    def get_state(self) -> dict:
        """Fitted state for :mod:`repro.persist` artifacts.

        Captures the constructor parameters plus the fitted per-column
        encoders (each persisting through its own state hooks) so a
        loaded encoder transforms bit-identically without refitting.
        """
        self._check_fitted()
        state = {
            "params": {
                "dim": self.dim,
                "seed": self.seed,
                "tie": self.tie,
                "bind_ids": self.bind_ids,
                "n_jobs": self.n_jobs,
                "chunk_rows": self.chunk_rows,
            },
            "specs": self.specs_,
            "encoders": self.encoders_,
        }
        if self.bind_ids:
            state["id_vectors"] = self.id_vectors_
        return state

    def set_state(self, state: dict) -> "RecordEncoder":
        params = state["params"]
        self.__init__(
            specs=state["specs"],
            dim=params["dim"],
            seed=params["seed"],
            tie=params["tie"],
            bind_ids=params["bind_ids"],
            n_jobs=params["n_jobs"],
            chunk_rows=params["chunk_rows"],
        )
        self.specs_ = list(state["specs"])
        self.encoders_ = list(state["encoders"])
        if self.bind_ids:
            self.id_vectors_ = np.asarray(state["id_vectors"], dtype=np.uint64)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    @property
    def n_features_in_(self) -> int:
        self._check_fitted()
        return len(self.encoders_)

    @property
    def feature_names_(self) -> List[str]:
        self._check_fitted()
        return [s.name for s in self.specs_]

    def describe(self) -> str:
        """One line per column: name, kind, fitted range/categories."""
        self._check_fitted()
        lines = []
        for spec, enc in zip(self.specs_, self.encoders_):
            if isinstance(enc, LevelEncoder):
                detail = f"range=[{enc.min_:g}, {enc.max_:g}]"
            elif isinstance(enc, BinaryEncoder):
                detail = "values={0, 1}"
            else:
                detail = f"categories={len(enc.table_)}"
            lines.append(f"{spec.name}: {spec.kind} ({detail})")
        return "\n".join(lines)
