"""Differential suite: every backend is bit-identical to the references.

Three layers of pinning, extending the HD006 discipline to backends:

* numpy tile kernels vs the ``*_reference`` oracles in
  :mod:`repro.core.search` (brute-force stable argsort);
* native kernels vs the numpy backend over hypothesis-generated shapes,
  dims, and tie-dense batches;
* the public API (``topk_hamming`` / ``loo_topk_hamming`` /
  ``RecordEncoder.transform``) under ``REPRO_KERNEL=numpy`` vs
  ``REPRO_KERNEL=native`` on the same inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.hypervector import pack_bits
from repro.core.search import (
    loo_topk_hamming,
    loo_topk_hamming_reference,
    topk_hamming,
    topk_hamming_reference,
)
from repro.kernels import get_backend
from repro.kernels import numpy_backend as knp

SETTINGS = settings(max_examples=25, deadline=None)


def batch(draw, n, dim, seed, p_ones):
    gen = np.random.default_rng(seed)
    bits = (gen.random((n, dim)) < p_ones).astype(np.uint8)
    return pack_bits(bits, dim)


# Tie-dense regimes: tiny dims and skewed densities force many equal
# distances, which is where tie-break drift would show.
shape_strategy = st.tuples(
    st.integers(min_value=1, max_value=23),   # queries
    st.integers(min_value=1, max_value=57),   # candidates
    st.integers(min_value=1, max_value=200),  # dim
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([0.05, 0.5, 0.95]),
)


class TestNumpyVsReference:
    @SETTINGS
    @given(shape_strategy, st.integers(min_value=1, max_value=9))
    def test_topk_tile_matches_oracle(self, shape, k):
        nq, nx, dim, seed, p = shape
        Q = batch(None, nq, dim, seed, p)
        X = batch(None, nx, dim, seed + 1, p)
        k = min(k, nx)
        d, i = knp.topk_hamming_tile(Q, X, k, tile_cols=7, word_chunk=1)
        dr, ir = topk_hamming_reference(Q, X, k)
        np.testing.assert_array_equal(d, dr)
        np.testing.assert_array_equal(i, ir)

    @SETTINGS
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=6),
    )
    def test_loo_tile_matches_oracle(self, n, dim, seed, k):
        X = batch(None, n, dim, seed, 0.5)
        k = min(k, n - 1)
        start, stop = 0, n
        d, i = knp.loo_topk_hamming_tile(X, start, stop, k, tile_cols=5, word_chunk=2)
        dr, ir = loo_topk_hamming_reference(X, k)
        np.testing.assert_array_equal(d, dr)
        np.testing.assert_array_equal(i, ir)

    def test_span_decomposition_is_exact(self):
        X = batch(None, 31, 96, 7, 0.5)
        full_d, full_i = knp.loo_topk_hamming_tile(X, 0, 31, 3)
        parts = [
            knp.loo_topk_hamming_tile(X, lo, hi, 3)
            for lo, hi in ((0, 9), (9, 20), (20, 31))
        ]
        np.testing.assert_array_equal(full_d, np.concatenate([p[0] for p in parts]))
        np.testing.assert_array_equal(full_i, np.concatenate([p[1] for p in parts]))


class TestNativeVsNumpy:
    @SETTINGS
    @given(shape_strategy)
    def test_hamming_block(self, native_built, shape):
        nq, nx, dim, seed, p = shape
        A = batch(None, nq, dim, seed, p)
        B = batch(None, nx, dim, seed + 1, p)
        native = get_backend("native")
        got = native.hamming_block(A, B)
        want = knp.hamming_block(A, B, word_chunk=3)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @SETTINGS
    @given(shape_strategy, st.integers(min_value=1, max_value=70))
    def test_topk_tile(self, native_built, shape, k):
        nq, nx, dim, seed, p = shape
        Q = batch(None, nq, dim, seed, p)
        X = batch(None, nx, dim, seed + 1, p)
        native = get_backend("native")
        # k may exceed nx: unfilled slots must stay (int64 max, -1) in both.
        d_n, i_n = native.topk_hamming_tile(Q, X, k)
        d_p, i_p = knp.topk_hamming_tile(Q, X, k, tile_cols=11, word_chunk=2)
        np.testing.assert_array_equal(d_n, d_p)
        np.testing.assert_array_equal(i_n, i_p)

    @SETTINGS
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([0.05, 0.5]),
    )
    def test_loo_row_span_tiles(self, native_built, n, dim, seed, k, p):
        X = batch(None, n, dim, seed, p)
        k = min(k, n - 1)
        native = get_backend("native")
        mid = n // 2
        for start, stop in ((0, n), (0, mid), (mid, n)):
            if start == stop:
                continue
            d_n, i_n = native.loo_topk_hamming_tile(X, start, stop, k)
            d_p, i_p = knp.loo_topk_hamming_tile(X, start, stop, k)
            np.testing.assert_array_equal(d_n, d_p)
            np.testing.assert_array_equal(i_n, i_p)

    def test_zero_row_inputs(self, native_built):
        native = get_backend("native")
        empty = np.zeros((0, 3), dtype=np.uint64)
        X = batch(None, 5, 150, 0, 0.5)
        assert native.hamming_block(empty, X).shape == (0, 5)
        assert native.hamming_block(X, np.zeros((0, 3), dtype=np.uint64)).shape == (5, 0)
        d, i = native.topk_hamming_tile(empty, X, 2)
        assert d.shape == (0, 2) and i.shape == (0, 2)


class TestPublicApiUnderBothBackends:
    def test_search_surface_is_backend_invariant(self, monkeypatch, native_built):
        gen = np.random.default_rng(3)
        dim = 1024
        X = pack_bits(gen.integers(0, 2, size=(90, dim), dtype=np.uint8), dim)
        Q = pack_bits(gen.integers(0, 2, size=(13, dim), dtype=np.uint8), dim)

        monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
        base = (topk_hamming(Q, X, 5), loo_topk_hamming(X, 4))
        monkeypatch.setenv(kernels.KERNEL_ENV, "native")
        fast = (topk_hamming(Q, X, 5), loo_topk_hamming(X, 4))
        for (bd, bi), (fd, fi) in zip(base, fast):
            np.testing.assert_array_equal(bd, fd)
            np.testing.assert_array_equal(bi, fi)

    def test_record_encoder_is_backend_invariant(self, monkeypatch, native_built):
        from repro.core.records import RecordEncoder, infer_feature_specs

        gen = np.random.default_rng(5)
        rows = gen.normal(size=(40, 7))
        specs = infer_feature_specs(rows)
        enc = RecordEncoder(specs, dim=2048, seed=9).fit(rows)

        monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
        base = enc.transform(rows)
        monkeypatch.setenv(kernels.KERNEL_ENV, "native")
        fast = enc.transform(rows)
        np.testing.assert_array_equal(base, fast)
        np.testing.assert_array_equal(base, enc.transform_reference(rows))
