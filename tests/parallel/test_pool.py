"""Tests for the parallel map."""

import os

import pytest

from repro.parallel.pool import effective_workers, parallel_map


def square(x):
    return x * x


class TestEffectiveWorkers:
    def test_explicit(self):
        assert effective_workers(4) == 4

    def test_negative_sklearn_style(self):
        assert effective_workers(-1) == max(1, os.cpu_count() or 1)

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert effective_workers(None) == 3

    def test_env_var_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            effective_workers(None)

    def test_default_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert effective_workers(None) >= 1


class TestParallelMap:
    def test_order_preserved_serial(self):
        assert parallel_map(square, range(10), n_jobs=1) == [x * x for x in range(10)]

    def test_order_preserved_threads(self):
        assert parallel_map(square, range(50), n_jobs=4) == [
            x * x for x in range(50)
        ]

    def test_empty_input(self):
        assert parallel_map(square, [], n_jobs=4) == []

    def test_small_input_runs_serial(self):
        # single item: no pool is spun up
        local = []
        assert parallel_map(lambda x: local.append(x) or x, [1], n_jobs=8) == [1]

    def test_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("worker failed")
            return x

        with pytest.raises(RuntimeError, match="worker failed"):
            parallel_map(boom, range(6), n_jobs=3)

    def test_exception_type_preserved(self):
        def boom(x):
            raise KeyError("k")

        with pytest.raises(KeyError):
            parallel_map(boom, range(4), n_jobs=2)
