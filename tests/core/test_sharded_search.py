"""Ties that straddle a boundary of the candidate scan resolve lowest-index.

The streaming engine scans the candidate store in contiguous ascending
spans (column tiles of ``tile_cols`` rows) and merges each span's top-k
into the running result.  A distance tie between the last row of one
span and the first row of the next must keep the global winner, exactly
as the dense stable-argsort reference does.
"""

from __future__ import annotations

import numpy as np

from repro.core.search import topk_hamming, topk_hamming_reference

DIM = 512
WORDS = DIM // 64


def _packed(rng, n):
    return rng.integers(0, 2**64, size=(n, WORDS), dtype=np.uint64)


def test_tie_break_across_shard_boundary():
    """Duplicate rows straddling a span edge still resolve lowest-index.

    With spans of 4 rows over 8 rows the boundary is at row 4; rows 3 and
    4 are identical, so both spans return the same distance and the merge
    must keep the global winner (index 3), exactly as the reference and
    the single-span scan do.
    """
    rng = np.random.default_rng(5)
    X = _packed(rng, 8)
    X[4] = X[3]
    Q = X[3:4].copy()
    for k in (1, 2, 8):
        d0, i0 = topk_hamming_reference(Q, X, k)
        for tile_cols in (4, 8):
            d1, i1 = topk_hamming(Q, X, k, tile_cols=tile_cols)
            np.testing.assert_array_equal(d0, d1)
            np.testing.assert_array_equal(i0, i1)
    _, top = topk_hamming(Q, X, 2, tile_cols=4)
    assert top[0, 0] == 3 and top[0, 1] == 4
