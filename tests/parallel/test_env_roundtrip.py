"""Env-var round-trip tests: REPRO_WORKERS → kernels.

Every dispatcher resolves its ``n_jobs`` through
``repro.parallel.pool.effective_workers``, so passing ``n_jobs=None`` to
a kernel must honour the ``REPRO_WORKERS`` override, and an invalid
value must raise rather than be silently ignored.
"""

import numpy as np
import pytest

from repro.core.distance import pairwise_hamming
from repro.core.records import RecordEncoder
from repro.core.hypervector import random_packed
from repro.parallel import effective_workers


@pytest.fixture
def packed():
    return random_packed(40, 300, seed=0)


class TestResolveConfig:
    """Worker-count resolution through ``effective_workers``."""

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert effective_workers(2) == 2

    def test_none_defers_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert effective_workers(None) == 3

    def test_zero_treated_like_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert effective_workers(0) == 5

    def test_invalid_env_workers_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            effective_workers(None)


class TestPairwiseHammingEnvRoundTrip:
    def test_env_workers_same_result(self, monkeypatch, packed):
        serial = pairwise_hamming(packed, chunk_rows=8, n_jobs=1)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert np.array_equal(
            pairwise_hamming(packed, chunk_rows=8, n_jobs=None), serial
        )

    def test_invalid_env_workers_propagates(self, monkeypatch, packed):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            pairwise_hamming(packed, n_jobs=None)


class TestRecordEncoderEnvRoundTrip:
    def test_transform_n_jobs_none_uses_env(self, monkeypatch, rng):
        X = rng.normal(size=(50, 3))
        serial = RecordEncoder(dim=130, seed=1, n_jobs=1).fit(X).transform(X)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        enc = RecordEncoder(dim=130, seed=1, n_jobs=None, chunk_rows=8).fit(X)
        assert np.array_equal(enc.transform(X), serial)
