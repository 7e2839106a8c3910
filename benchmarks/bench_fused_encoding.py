"""K2 — fused record encoding vs the per-row reference path.

The fused pipeline (precomputed level tables, quantise-and-gather batch
encoding, packed bit-plane bundling) must beat the per-row, per-value
reference construction by a wide margin at paper scale: a 10,000-row
synthetic mixed-feature matrix encoded into 10,000-bit hypervectors.

The acceptance bar is a >= 3x per-row speedup of
``RecordEncoder.transform`` over ``RecordEncoder.transform_reference``
with bit-identical outputs; ``test_fused_speedup_over_reference``
asserts both directly (bit-identity is additionally locked down across
dims/ties/seeds by ``tests/core/test_fused_encoding.py``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_fused_encoding.py -q

``REPRO_BENCH_SCALE=fast`` shrinks the matrix for smoke runs.
"""

import os
import time

import numpy as np
import pytest

from repro.core.records import FeatureSpec, RecordEncoder

FAST = os.environ.get("REPRO_BENCH_SCALE") == "fast"
DIM = 1024 if FAST else 10_000
N_ROWS = 1_000 if FAST else 10_000
REF_ROWS = 200 if FAST else 1_000  # reference slice; compared per-row
MIN_SPEEDUP = 3.0


def _mixed_matrix(n, seed=0):
    """Pima/Sylhet-shaped synthetic data: 8 mixed-type feature columns."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.uniform(0.0, 200.0, n),       # glucose-like continuous
            rng.gamma(2.0, 40.0, n),          # skewed continuous
            rng.normal(30.0, 8.0, n),         # BMI-like continuous
            rng.uniform(20.0, 80.0, n),       # age-like continuous
            (rng.random(n) < 0.35).astype(float),   # binary flag
            rng.integers(0, 120, n).astype(float),  # coarse leveled
            rng.uniform(0.0, 2.5, n),               # fine leveled
            rng.integers(0, 5, n).astype(float),    # categorical
        ]
    )
    specs = [
        FeatureSpec("glucose", "linear"),
        FeatureSpec("insulin", "linear"),
        FeatureSpec("bmi", "linear"),
        FeatureSpec("age", "linear"),
        FeatureSpec("flag", "binary"),
        FeatureSpec("coarse", "linear", levels=32),
        FeatureSpec("fine", "linear", levels=16),
        FeatureSpec("cat", "categorical"),
    ]
    return X, specs


@pytest.fixture(scope="module")
def data():
    return _mixed_matrix(N_ROWS)


@pytest.fixture(scope="module")
def encoder(data):
    X, specs = data
    return RecordEncoder(specs=specs, dim=DIM, seed=7).fit(X)


def test_fused_transform_full_matrix(benchmark, data, encoder):
    """Fused path: the whole 10k x 8 matrix -> 10k-bit hypervectors."""
    X, _ = data
    packed = benchmark(encoder.transform, X)
    assert packed.shape[0] == N_ROWS


def test_reference_transform_slice(benchmark, data, encoder):
    """Per-row reference path on a slice (full matrix takes minutes)."""
    X, _ = data
    packed = benchmark.pedantic(
        encoder.transform_reference, args=(X[:REF_ROWS],), rounds=2, iterations=1
    )
    assert packed.shape[0] == REF_ROWS


def test_fused_speedup_over_reference(data, encoder):
    """The acceptance bar: >= 3x per-row speedup, bit-identical output."""
    X, _ = data
    encoder.transform(X[:256])  # warm caches / first-touch allocations

    fused = min(
        _timed(encoder.transform, X) for _ in range(3)
    )
    reference = min(
        _timed(encoder.transform_reference, X[:REF_ROWS]) for _ in range(2)
    )
    per_row_fused = fused / N_ROWS
    per_row_reference = reference / REF_ROWS
    speedup = per_row_reference / per_row_fused
    print(
        f"\nfused: {fused:.3f}s ({N_ROWS} rows)  "
        f"reference: {reference:.3f}s ({REF_ROWS} rows)  "
        f"per-row speedup: {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fused path is only {speedup:.2f}x faster than the reference "
        f"(required: {MIN_SPEEDUP}x)"
    )
    assert np.array_equal(
        encoder.transform(X[:REF_ROWS]), encoder.transform_reference(X[:REF_ROWS])
    )


def test_obs_disabled_overhead(data, encoder):
    """PR 4 acceptance: disarmed tracing costs < 2% of fused encoding.

    With ``REPRO_OBS`` unset, every ``span(...)`` call site in the hot
    path returns the shared null context manager.  The bound is checked
    analytically — (call sites exercised per transform) x (measured
    per-call cost of a disabled ``span()``) against the measured
    transform time — so the assertion is immune to run-to-run noise that
    dwarfs the nanosecond-scale effect in an A/B timing.
    """
    from repro import obs

    was_enabled = obs.enabled()
    obs.disable()
    try:
        X, _ = data
        encoder.transform(X[:256])  # warm caches / first-touch allocations
        transform_s = min(_timed(encoder.transform, X) for _ in range(3))

        # Call sites per transform: the encode.transform wrapper plus one
        # encode.count_chunk span per row chunk.
        n_chunks = -(-N_ROWS // encoder.chunk_rows)
        calls = 1 + n_chunks

        reps = 200_000
        t0 = time.perf_counter()
        for _ in range(reps):
            obs.span("encode.count_chunk", rows=2048)
        per_call = (time.perf_counter() - t0) / reps

        overhead = calls * per_call / transform_s
        print(
            f"\ndisabled-span overhead: {overhead:.5%} "
            f"({calls} call sites x {per_call * 1e9:.0f} ns/call over "
            f"{transform_s:.3f}s transform)"
        )
        assert overhead < 0.02, (
            f"disabled observability costs {overhead:.3%} of the fused "
            f"encoding path (required: < 2%)"
        )
    finally:
        if was_enabled:
            obs.enable()


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0
