"""Property-based tests (hypothesis) for the HDC core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bundling import majority_dense, majority_vote, majority_vote_batch
from repro.core.distance import pairwise_hamming
from repro.core.encoding import LevelEncoder
from repro.core.hypervector import (
    Hypervector,
    n_words,
    pack_bits,
    popcount,
    random_packed,
    tail_mask,
    unpack_bits,
    xor_packed,
)


def _padding_is_zero(packed: np.ndarray, dim: int) -> bool:
    """The trailing bits of the last word must always be zero."""
    packed = np.asarray(packed, dtype=np.uint64)
    return not np.any(packed[..., -1] & ~tail_mask(dim))

DIMS = st.integers(min_value=1, max_value=300)


@st.composite
def bit_matrix(draw, max_rows=8, max_dim=300, min_rows=1):
    rows = draw(st.integers(min_rows, max_rows))
    dim = draw(st.integers(1, max_dim))
    data = draw(
        hnp.arrays(np.uint8, (rows, dim), elements=st.integers(0, 1))
    )
    return data


class TestPackingProperties:
    @given(bits=bit_matrix())
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, bits):
        packed = pack_bits(bits)
        assert np.array_equal(unpack_bits(packed, bits.shape[1]), bits)

    @given(bits=bit_matrix())
    @settings(max_examples=60, deadline=None)
    def test_popcount_equals_sum(self, bits):
        assert np.array_equal(popcount(pack_bits(bits)), bits.sum(axis=1))

    @given(bits=bit_matrix(max_rows=4))
    @settings(max_examples=40, deadline=None)
    def test_xor_involution(self, bits):
        """a XOR b XOR b == a (binding is its own inverse)."""
        if bits.shape[0] < 2:
            return
        a, b = pack_bits(bits[:1]), pack_bits(bits[1:2])
        assert np.array_equal(xor_packed(xor_packed(a, b), b), a)


class TestHammingProperties:
    @given(bits=bit_matrix(max_rows=6, min_rows=2))
    @settings(max_examples=50, deadline=None)
    def test_metric_axioms(self, bits):
        D = pairwise_hamming(pack_bits(bits))
        n = bits.shape[0]
        # identity, symmetry, non-negativity
        assert np.array_equal(np.diag(D), np.zeros(n, dtype=np.int64))
        assert np.array_equal(D, D.T)
        assert np.all(D >= 0)
        # triangle inequality (small n so full check is cheap)
        for i in range(n):
            for j in range(n):
                assert np.all(D[i, j] <= D[i] + D[:, j])

    @given(bits=bit_matrix(max_rows=2, min_rows=2))
    @settings(max_examples=40, deadline=None)
    def test_distance_bounded_by_dim(self, bits):
        D = pairwise_hamming(pack_bits(bits))
        assert D.max() <= bits.shape[1]

    @given(bits=bit_matrix(max_rows=1))
    @settings(max_examples=30, deadline=None)
    def test_complement_at_max_distance(self, bits):
        dim = bits.shape[1]
        a = pack_bits(bits)
        b = pack_bits(1 - bits)
        assert pairwise_hamming(a, b)[0, 0] == dim


class TestMajorityProperties:
    @given(bits=bit_matrix(max_rows=7, min_rows=1))
    @settings(max_examples=50, deadline=None)
    def test_majority_bounded_by_inputs(self, bits):
        """Majority output bit must appear in at least one input."""
        out = majority_dense(bits)
        any_one = bits.max(axis=0)
        all_one = bits.min(axis=0)
        assert np.all(out <= any_one)
        assert np.all(out >= all_one)

    @given(bits=bit_matrix(max_rows=7, min_rows=1))
    @settings(max_examples=50, deadline=None)
    def test_majority_permutation_invariant(self, bits):
        perm = np.random.default_rng(0).permutation(bits.shape[0])
        assert np.array_equal(majority_dense(bits), majority_dense(bits[perm]))

    @given(bits=bit_matrix(max_rows=5, min_rows=1))
    @settings(max_examples=50, deadline=None)
    def test_packed_matches_dense(self, bits):
        dim = bits.shape[1]
        packed = majority_vote(pack_bits(bits), dim)
        assert np.array_equal(
            unpack_bits(packed[None, :], dim)[0], majority_dense(bits)
        )

    @given(bits=bit_matrix(max_rows=3, min_rows=3))
    @settings(max_examples=40, deadline=None)
    def test_bundle_distance_bound(self, bits):
        """d(bundle, member) <= sum of pairwise distances (loose sanity)."""
        dim = bits.shape[1]
        bundle = majority_vote(pack_bits(bits), dim)
        member = pack_bits(bits[:1])[0]
        d = pairwise_hamming(bundle[None, :], member[None, :])[0, 0]
        assert d <= dim


class TestLevelEncoderProperties:
    @given(
        dim=st.integers(32, 512),
        seed=st.integers(0, 1000),
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=10,
            unique=True,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_distance_monotone_in_value_order(self, dim, seed, values):
        enc = LevelEncoder(dim=dim, seed=seed).fit(values)
        lo = min(values)
        ordered = sorted(values)
        base = Hypervector(enc.encode(lo), dim)
        dists = [base.hamming(Hypervector(enc.encode(v), dim)) for v in ordered]
        assert all(d1 <= d2 for d1, d2 in zip(dists, dists[1:]))

    @given(dim=st.integers(32, 512), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_extremes_half_distance(self, dim, seed):
        enc = LevelEncoder(dim=dim, seed=seed).fit([0.0, 1.0])
        a = Hypervector(enc.encode(0.0), dim)
        b = Hypervector(enc.encode(1.0), dim)
        assert a.hamming(b) == round(dim * 0.5 / 2) * 2 or a.hamming(b) == dim // 2

    @given(
        dim=st.integers(8, 400),
        seed=st.integers(0, 200),
        t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_distance_to_min_seed_exactly_linear(self, dim, seed, t):
        """d(enc(min), enc(t)) equals the paper's flip count *exactly*:
        the schedules toggle distinct bits, so Hamming distance to the
        min-value seed grows linearly in x(t), landing at ~k/2 for max."""
        enc = LevelEncoder(dim=dim, seed=seed).fit([0.0, 1.0])
        x = int(enc.quantize([t])[0])
        seed_hv = Hypervector(enc.seed_vector_, dim)
        enc_hv = Hypervector(enc.encode_batch([t])[0], dim)
        assert seed_hv.hamming(enc_hv) == x
        # max lands at flip count round(k/2), i.e. Hamming k/2 up to rounding
        assert int(enc.quantize([1.0])[0]) == int(round(dim / 2.0))

    @given(dim=st.integers(8, 400), seed=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_level_table_rows_monotone_from_seed(self, dim, seed):
        """Row x of the cached level table is at distance exactly x from
        the seed row — the nested-family construction, table-wide."""
        enc = LevelEncoder(dim=dim, seed=seed).fit([0.0, 1.0])
        dists = popcount(xor_packed(enc.level_table_, enc.level_table_[0]))
        assert np.array_equal(dists, np.arange(enc.n_levels_))


class TestFusedPaddingInvariant:
    """dim % 64 != 0: trailing word bits stay zero through every stage."""

    @given(dim=st.integers(2, 300), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_level_table_padding(self, dim, seed):
        enc = LevelEncoder(dim=dim, seed=seed).fit([0.0, 1.0])
        assert _padding_is_zero(enc.level_table_, dim)

    @given(
        dim=st.integers(2, 300),
        seed=st.integers(0, 100),
        rows=st.integers(1, 6),
        m=st.integers(1, 17),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_and_bundle_padding(self, dim, seed, rows, m):
        """Bit-plane bundling agrees with per-row dense votes and keeps
        the padding zero, for any row/feature count and tie rule."""
        stack = random_packed((rows, m), dim, seed=seed)
        assert _padding_is_zero(stack, dim)
        for tie in ("one", "zero", "random"):
            bundled = majority_vote_batch(stack, dim, tie=tie, seed=seed)
            assert _padding_is_zero(bundled, dim)
            if tie != "random":
                for i in range(rows):
                    want = majority_dense(unpack_bits(stack[i], dim), tie=tie)
                    assert np.array_equal(unpack_bits(bundled[i], dim), want)

    @given(dim=st.integers(2, 300), seed=st.integers(0, 100), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_encode_batch_padding(self, dim, seed, n):
        enc = LevelEncoder(dim=dim, seed=seed).fit([0.0, 1.0])
        values = np.linspace(0.0, 1.0, n)
        assert _padding_is_zero(enc.encode_batch(values), dim)

    @given(dim=st.integers(2, 300), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_tie_one_does_not_set_padding(self, dim, seed):
        """tie="one" flips tied bits to 1 — but only *valid* bits: an even
        all-ones/all-zeros split must still leave the padding zeroed."""
        stack = random_packed((3, 2), dim, seed=seed)
        stack[:, 1, :] = np.bitwise_xor(
            stack[:, 0, :], np.uint64(0xFFFFFFFFFFFFFFFF)
        )
        stack[:, 1, -1] &= tail_mask(dim)  # restore the invariant on input
        bundled = majority_vote_batch(stack, dim, tie="one")
        assert _padding_is_zero(bundled, dim)
        # every valid bit is tied, so tie="one" must produce all-ones
        assert np.all(unpack_bits(bundled, dim) == 1)

    @given(
        dim=st.integers(32, 512),
        seed=st.integers(0, 100),
        t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_density_always_near_half(self, dim, seed, t):
        enc = LevelEncoder(dim=dim, seed=seed).fit([0.0, 1.0])
        ones = int(popcount(enc.encode(t)))
        assert abs(ones - dim // 2) <= 1
