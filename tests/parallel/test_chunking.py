"""Tests for row-span decomposition."""

import pytest

from repro.parallel.chunking import chunk_spans


class TestChunkSpans:
    def test_exact_division(self):
        assert chunk_spans(8, 4) == [(0, 4), (4, 8)]

    def test_remainder(self):
        assert chunk_spans(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_chunk_larger_than_n(self):
        assert chunk_spans(3, 100) == [(0, 3)]

    def test_zero_items(self):
        assert chunk_spans(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_spans(-1, 4)
        with pytest.raises(ValueError):
            chunk_spans(4, 0)
