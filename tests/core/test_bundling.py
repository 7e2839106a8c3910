"""Unit tests for majority-vote bundling."""

import numpy as np
import pytest

from repro.core.bundling import (
    majority_dense,
    majority_vote,
    majority_vote_batch,
    weighted_majority,
)
from repro.core.hypervector import (
    Hypervector,
    n_words,
    pack_bits,
    random_packed,
    tail_mask,
    unpack_bits,
)


def pack_rows(rows):
    return pack_bits(np.asarray(rows, dtype=np.uint8))


def dense_batch_majority(packed_stack, dim, tie, seed):
    """Per-row :func:`majority_dense`; random ties take one global draw.

    For ``tie="random"`` the tied bits are the rows where the ``one`` and
    ``zero`` rules disagree, filled from a single ``integers(0, 2)`` stream
    in row-major order — the batch contract of ``majority_vote_batch``.
    """
    rows = [unpack_bits(record, dim) for record in packed_stack]
    if tie != "random":
        return np.stack([majority_dense(r, tie=tie) for r in rows])
    ones = np.stack([majority_dense(r, tie="one") for r in rows])
    zeros = np.stack([majority_dense(r, tie="zero") for r in rows])
    tied = ones != zeros
    out = zeros.copy()
    out[tied] = np.random.default_rng(seed).integers(
        0, 2, size=int(tied.sum()), dtype=np.uint8
    )
    return out


class TestMajorityDense:
    def test_odd_count_simple(self):
        bits = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=np.uint8)
        assert majority_dense(bits).tolist() == [1, 1, 0]

    def test_tie_one(self):
        bits = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert majority_dense(bits, tie="one").tolist() == [1, 1]

    def test_tie_zero(self):
        bits = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert majority_dense(bits, tie="zero").tolist() == [0, 0]

    def test_tie_random_only_touches_ties(self, rng):
        bits = np.array([[1, 1, 0, 0], [1, 0, 1, 0]], dtype=np.uint8)
        out = majority_dense(bits, tie="random", rng=rng)
        assert out[0] == 1  # unanimous one
        assert out[3] == 0  # unanimous zero

    def test_single_vector_identity(self, rng):
        bits = (rng.random((1, 50)) < 0.5).astype(np.uint8)
        assert np.array_equal(majority_dense(bits), bits[0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            majority_dense(np.zeros((0, 10), dtype=np.uint8))

    def test_bad_tie_rule(self):
        with pytest.raises(ValueError, match="tie"):
            majority_dense(np.zeros((2, 4), dtype=np.uint8), tie="coin")

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            majority_dense(np.zeros(8, dtype=np.uint8))


class TestMajorityVotePacked:
    def test_matches_dense_path(self, rng):
        dim = 130
        bits = (rng.random((5, dim)) < 0.5).astype(np.uint8)
        out = majority_vote(pack_rows(bits), dim)
        ref = majority_dense(bits)
        assert np.array_equal(unpack_bits(out[None, :], dim)[0], ref)

    def test_unanimous(self):
        dim = 70
        ones = np.ones((3, dim), dtype=np.uint8)
        out = majority_vote(pack_rows(ones), dim)
        assert np.array_equal(unpack_bits(out[None, :], dim)[0], ones[0])

    def test_batch_matches_loop(self, rng):
        dim = 200
        stack = (rng.random((6, 5, dim)) < 0.5).astype(np.uint8)
        packed_stack = np.stack([pack_rows(stack[i]) for i in range(6)])
        batch = majority_vote_batch(packed_stack, dim)
        for i in range(6):
            single = majority_vote(packed_stack[i], dim)
            assert np.array_equal(batch[i], single)

    def test_batch_tie_zero(self, rng):
        dim = 96
        stack = (rng.random((3, 2, dim)) < 0.5).astype(np.uint8)
        packed_stack = np.stack([pack_rows(stack[i]) for i in range(3)])
        batch = majority_vote_batch(packed_stack, dim, tie="zero")
        for i in range(3):
            ref = majority_dense(stack[i], tie="zero")
            assert np.array_equal(unpack_bits(batch[i][None, :], dim)[0], ref)

    def test_batch_requires_3d(self, rng):
        with pytest.raises(ValueError):
            majority_vote_batch(random_packed(3, 64, 0), 64)

    def test_batch_empty_features(self):
        with pytest.raises(ValueError, match="zero vectors"):
            majority_vote_batch(np.zeros((2, 0, 1), dtype=np.uint64), 64)

    def test_batch_validation(self):
        stack = random_packed((2, 3), 10, seed=0)
        with pytest.raises(ValueError, match="tie"):
            majority_vote_batch(stack, 10, tie="coin")
        with pytest.raises(ValueError, match="words"):
            majority_vote_batch(stack, 65)

    def test_bundled_vector_is_close_to_inputs(self, rng):
        """Kanerva property: the bundle is closer to its members than chance."""
        dim = 10_000
        members = random_packed(5, dim, seed=0)
        bundle = Hypervector(majority_vote(members, dim), dim)
        for i in range(5):
            member = Hypervector(members[i], dim)
            assert bundle.normalized_hamming(member) < 0.4  # chance is 0.5

    def test_odd_majority_ignores_tie_rule(self, rng):
        dim = 128
        bits = (rng.random((3, dim)) < 0.5).astype(np.uint8)
        packed = pack_rows(bits)
        assert np.array_equal(
            majority_vote(packed, dim, tie="one"), majority_vote(packed, dim, tie="zero")
        )


class TestPackedMajorityMatchesDense:
    """The bit-plane majority against the plain per-row integer vote."""

    @pytest.mark.parametrize("tie", ["one", "zero", "random"])
    @pytest.mark.parametrize("dim", [2, 63, 64, 65, 130, 999])
    @pytest.mark.parametrize("m", range(1, 18))
    def test_matches_per_row_dense(self, m, dim, tie):
        stack = random_packed((5, m), dim, seed=1000 * m + dim)
        got = majority_vote_batch(stack, dim, tie=tie, seed=m)
        assert got.shape == (5, n_words(dim))
        assert not np.any(got[:, -1] & ~tail_mask(dim))
        want = dense_batch_majority(stack, dim, tie, seed=m)
        assert np.array_equal(unpack_bits(got, dim), want)


class TestWeightedMajority:
    def test_unit_weights_equal_plain_vote(self, rng):
        dim = 150
        bits = (rng.random((5, dim)) < 0.5).astype(np.uint8)
        packed = pack_rows(bits)
        w = np.ones(5)
        assert np.array_equal(
            weighted_majority(packed, dim, w), majority_vote(packed, dim)
        )

    def test_dominant_weight_wins(self, rng):
        dim = 100
        bits = (rng.random((3, dim)) < 0.5).astype(np.uint8)
        packed = pack_rows(bits)
        w = np.array([10.0, 1.0, 1.0])
        out = weighted_majority(packed, dim, w)
        assert np.array_equal(unpack_bits(out[None, :], dim)[0], bits[0])

    def test_rejects_negative_weights(self, rng):
        packed = random_packed(2, 64, 0)
        with pytest.raises(ValueError, match="non-negative"):
            weighted_majority(packed, 64, np.array([1.0, -1.0]))

    def test_rejects_all_zero_weights(self, rng):
        packed = random_packed(2, 64, 0)
        with pytest.raises(ValueError, match="positive"):
            weighted_majority(packed, 64, np.zeros(2))

    def test_rejects_shape_mismatch(self):
        packed = random_packed(2, 64, 0)
        with pytest.raises(ValueError, match="weights shape"):
            weighted_majority(packed, 64, np.ones(3))

    def test_tie_rules(self):
        dim = 64
        a = np.zeros((1, dim), dtype=np.uint8)
        b = np.ones((1, dim), dtype=np.uint8)
        packed = pack_rows(np.vstack([a, b]))
        w = np.array([1.0, 1.0])
        one = unpack_bits(weighted_majority(packed, dim, w, tie="one")[None, :], dim)[0]
        zero = unpack_bits(weighted_majority(packed, dim, w, tie="zero")[None, :], dim)[0]
        assert one.sum() == dim
        assert zero.sum() == 0
