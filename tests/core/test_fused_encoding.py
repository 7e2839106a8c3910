"""Differential tests: fused fast path vs the per-value reference path.

The fused pipeline (precomputed level tables, quantise-and-gather batch
encoding, bit-plane bundling, chunked dispatch) must be *bit-identical*
to ``RecordEncoder.transform_reference`` — the original per-row, per-value
construction — for every dimensionality (including non-multiples of 64),
feature mix, tie rule and seed.  Any deviation is a correctness bug, not a
tolerance issue.
"""

import numpy as np
import pytest

from repro.core.bundling import _count_planes, majority_vote_batch
from repro.core.encoding import BinaryEncoder, CategoricalEncoder, LevelEncoder
from repro.core.hypervector import flip_bits, n_words, unpack_bits
from repro.core.records import FeatureSpec, RecordEncoder

# Deliberately awkward dimensionalities: word-aligned, sub-word, odd,
# one-past-a-word-boundary.
DIMS = [64, 100, 130, 257, 1024]


def _mixed_matrix(rng, n=120):
    """Continuous + binary + quantised-linear + categorical columns."""
    X = np.column_stack(
        [
            rng.uniform(-5.0, 17.0, n),
            (rng.random(n) < 0.35).astype(float),
            rng.gamma(2.0, 40.0, n),
            rng.integers(0, 5, n).astype(float),
        ]
    )
    specs = [
        FeatureSpec("cont", "linear"),
        FeatureSpec("flag", "binary"),
        FeatureSpec("lab", "linear", levels=16),
        FeatureSpec("cat", "categorical"),
    ]
    return X, specs


class TestEncoderTablesMatchPerValue:
    """Cached tables vs the pre-cache per-value construction, per level."""

    @pytest.mark.parametrize("dim", DIMS + [2, 3, 5, 31])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_level_table_every_flip_count(self, dim, seed):
        enc = LevelEncoder(dim=dim, seed=seed).fit([0.0, 1.0])
        assert enc.level_table_.shape == (enc.n_levels_, n_words(dim))
        for x in range(enc.n_levels_):
            half = x // 2
            odd = x - 2 * half
            positions = np.concatenate(
                [enc.flip_ones_[:half], enc.flip_zeros_[: half + odd]]
            )
            reference = flip_bits(enc.seed_vector_, dim, positions)
            assert np.array_equal(enc.level_table_[x], reference), x

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("levels", [None, 2, 16])
    def test_level_batch_matches_encode(self, dim, levels, rng):
        enc = LevelEncoder(dim=dim, seed=3, levels=levels).fit(
            rng.uniform(-2.0, 9.0, 50)
        )
        values = np.concatenate(
            [rng.uniform(-4.0, 12.0, 64), [enc.min_, enc.max_]]  # incl. clipping
        )
        batch = enc.encode_batch(values)
        reference = np.stack([enc.encode(v) for v in values])
        assert np.array_equal(batch, reference)

    def test_quantize_matches_flip_count(self, rng):
        enc = LevelEncoder(dim=1000, seed=1, levels=16).fit(rng.uniform(0, 1, 30))
        values = rng.uniform(-0.5, 1.5, 200)
        vec = enc.quantize(values)
        assert vec.tolist() == [enc.flip_count(v) for v in values]

    def test_constant_feature_maps_to_seed(self):
        enc = LevelEncoder(dim=100, seed=2).fit([4.0, 4.0, 4.0])
        assert np.all(enc.quantize([0.0, 4.0, 9.0]) == 0)
        assert np.array_equal(enc.encode_batch([7.0])[0], enc.seed_vector_)

    def test_quantize_clip_false_raises(self):
        enc = LevelEncoder(dim=100, seed=2, clip=False).fit([0.0, 1.0])
        with pytest.raises(ValueError, match="outside fitted range"):
            enc.quantize([1.5])

    def test_quantize_rejects_non_finite(self):
        enc = LevelEncoder(dim=100, seed=2).fit([0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            enc.quantize([np.nan])

    @pytest.mark.parametrize("dim", [100, 130])
    def test_binary_codebook_matches_encode(self, dim):
        enc = BinaryEncoder(dim=dim, seed=5).fit([0, 1])
        values = [0, 1, 1, 0, 1]
        batch = enc.encode_batch(values)
        reference = np.stack([enc.encode(v) for v in values])
        assert np.array_equal(batch, reference)
        assert np.array_equal(enc.codebook(), np.stack([enc.zero_vector_, enc.one_vector_]))

    @pytest.mark.parametrize("dim", [100, 130])
    def test_categorical_codebook_matches_encode(self, dim, rng):
        fit_vals = rng.integers(0, 6, 40).astype(float)
        enc = CategoricalEncoder(dim=dim, seed=5).fit(fit_vals)
        values = rng.choice(np.unique(fit_vals), 30)
        batch = enc.encode_batch(values)
        reference = np.stack([enc.encode(v) for v in values])
        assert np.array_equal(batch, reference)

    def test_categorical_string_keys(self):
        enc = CategoricalEncoder(dim=96, seed=1).fit(["a", "b", "c", "a"])
        batch = enc.encode_batch(["c", "a", "b"])
        reference = np.stack([enc.encode(v) for v in ["c", "a", "b"]])
        assert np.array_equal(batch, reference)

    def test_categorical_unseen_raises_in_batch(self):
        enc = CategoricalEncoder(dim=96, seed=1).fit([1.0, 2.0])
        with pytest.raises(KeyError, match="unseen"):
            enc.quantize([3.0])
        with pytest.raises(KeyError, match="unseen"):
            enc.quantize(["x"])


class TestTransformMatchesReference:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("seed", [0, 11, 2023])
    def test_mixed_features_bit_identical(self, dim, seed, rng):
        X, specs = _mixed_matrix(rng)
        enc = RecordEncoder(specs, dim=dim, seed=seed).fit(X)
        assert np.array_equal(enc.transform(X), enc.transform_reference(X))

    @pytest.mark.parametrize("tie", ["one", "zero", "random"])
    def test_tie_rules_bit_identical(self, tie, rng):
        X, specs = _mixed_matrix(rng)
        enc = RecordEncoder(specs, dim=130, seed=4, tie=tie).fit(X)
        assert np.array_equal(enc.transform(X), enc.transform_reference(X))

    @pytest.mark.parametrize("tie", ["one", "random"])
    def test_bind_ids_bit_identical(self, tie, rng):
        X, specs = _mixed_matrix(rng)
        enc = RecordEncoder(specs, dim=257, seed=9, tie=tie, bind_ids=True).fit(X)
        assert np.array_equal(enc.transform(X), enc.transform_reference(X))

    def test_unseen_rows_clip_identically(self, rng):
        X, specs = _mixed_matrix(rng)
        enc = RecordEncoder(specs, dim=100, seed=1).fit(X)
        extreme = X.copy()
        extreme[:, 0] = 1e9
        extreme[:, 2] = -1e9
        assert np.array_equal(
            enc.transform(extreme), enc.transform_reference(extreme)
        )

    @pytest.mark.parametrize("chunk_rows", [1, 7, 64, 4096])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_chunking_and_workers_invariant(self, chunk_rows, n_jobs, rng):
        """Output must not depend on chunk geometry or worker count."""
        X, specs = _mixed_matrix(rng)
        baseline = RecordEncoder(specs, dim=130, seed=6).fit(X).transform(X)
        enc = RecordEncoder(
            specs, dim=130, seed=6, n_jobs=n_jobs, chunk_rows=chunk_rows
        ).fit(X)
        assert np.array_equal(enc.transform(X), baseline)

    def test_random_tie_chunking_invariant(self, rng):
        """The random tie rule consumes one global RNG stream: chunk size
        must not change which bits get which random tie-break."""
        X = rng.normal(size=(60, 4))  # even feature count → ties happen
        baseline = RecordEncoder(dim=130, seed=8, tie="random").fit(X).transform(X)
        for chunk_rows in (1, 13, 59):
            enc = RecordEncoder(dim=130, seed=8, tie="random", chunk_rows=chunk_rows)
            assert np.array_equal(enc.fit(X).transform(X), baseline)

    def test_empty_batch_rejected_like_reference(self, rng):
        X, specs = _mixed_matrix(rng)
        enc = RecordEncoder(specs, dim=100, seed=1).fit(X)
        with pytest.raises(ValueError, match="at least 1 sample"):
            enc.transform(X[:0])
        with pytest.raises(ValueError, match="at least 1 sample"):
            enc.transform_reference(X[:0])

    def test_constructor_knobs_respected(self, rng):
        X, specs = _mixed_matrix(rng)
        enc = RecordEncoder(specs, dim=100, seed=1, n_jobs=2, chunk_rows=16).fit(X)
        assert np.array_equal(enc.transform(X), enc.transform_reference(X))

    def test_encode_features_consistent_with_transform(self, rng):
        """The exposed feature layer bundled by the batch kernel must agree
        with the fused path (they share no encode code any more)."""
        X, specs = _mixed_matrix(rng)
        enc = RecordEncoder(specs, dim=257, seed=12).fit(X)
        feats = enc.encode_features(X)
        bundled = majority_vote_batch(feats, 257, tie=enc.tie, seed=enc.seed)
        assert np.array_equal(bundled, enc.transform(X))


class TestCountsKernel:
    @pytest.mark.parametrize("dim", DIMS)
    def test_counts_equal_dense_sum(self, dim, rng):
        """The carry-save bit-planes encode exactly the per-bit vote sums."""
        from repro.core.hypervector import random_packed

        for m in (1, 2, 3, 5, 8, 9):
            stack = random_packed((9, m), dim, seed=m)
            planes = _count_planes(stack)
            assert len(planes) == m.bit_length()
            counts = sum(
                unpack_bits(plane, dim).astype(np.int64) << b
                for b, plane in enumerate(planes)
            )
            dense = unpack_bits(stack, dim).sum(axis=1)
            assert np.array_equal(counts, dense)
