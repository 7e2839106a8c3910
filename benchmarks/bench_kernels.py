"""K1 — HPC kernel microbenchmarks.

Throughput of the primitives everything else is built on, at the paper's
scale (10,000-bit hypervectors, Pima/Sylhet-sized batches):

* packed pairwise Hamming (the LOOCV hot loop);
* level-encoder batch encoding;
* majority-vote bundling;
* pack/unpack conversion at the ML-model boundary.

These are proper pytest-benchmark measurements (multiple rounds), unlike
the table benches which run the full experiment once.

The backend comparison section times numpy vs native single-core
``hamming_block`` and ``topk_hamming`` (record encoding is pure numpy on
every backend, so it has no row here; older ``fused_encoding`` rows in the
trajectory are kept as history), a CI speedup gate (native top-k must beat numpy by >= 3x even
under the ``fast`` preset), and a schema-versioned trajectory writer
that merges measured runs into ``BENCH_kernels.json`` when
``REPRO_KERNEL_BENCH_OUT`` points at a file.
"""

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.core.bundling import majority_vote_batch
from repro.core.distance import pairwise_hamming
from repro.core.encoding import LevelEncoder
from repro.core.hypervector import pack_bits, random_packed, unpack_bits
from repro.core.records import RecordEncoder
from repro.data.pima import load_pima_r

DIM = 10_000
N = 392  # Pima R size


@pytest.fixture(scope="module")
def packed_batch():
    return random_packed(N, DIM, seed=0)


@pytest.fixture(scope="module")
def pima():
    return load_pima_r(seed=2023)


def test_pairwise_hamming_loocv_matrix(benchmark, packed_batch):
    """Full 392x392x10k distance matrix — the entire LOOCV cost."""
    D = benchmark(pairwise_hamming, packed_batch)
    assert D.shape == (N, N)
    assert np.all(np.diag(D) == 0)


def test_pairwise_hamming_larger_batch(benchmark):
    big = random_packed(1024, DIM, seed=1)
    D = benchmark(pairwise_hamming, big)
    assert D.shape == (1024, 1024)


def test_level_encoder_batch(benchmark, rng_values=None):
    enc = LevelEncoder(dim=DIM, seed=0).fit([0.0, 1.0])
    values = np.linspace(0, 1, N)
    out = benchmark(enc.encode_batch, values)
    assert out.shape[0] == N


def test_record_encoder_pima(benchmark, pima):
    """Whole-dataset encoding: 392 patients x 8 features -> 10k bits."""
    enc = RecordEncoder(specs=pima.specs, dim=DIM, seed=0).fit(pima.X)
    packed = benchmark(enc.transform, pima.X)
    assert packed.shape[0] == pima.n_samples


def test_majority_vote_batch(benchmark):
    stack = random_packed((N, 8), DIM, seed=2)
    out = benchmark(majority_vote_batch, stack, DIM)
    assert out.shape[0] == N


def test_pack_unpack_roundtrip(benchmark):
    bits = (np.random.default_rng(0).random((N, DIM)) < 0.5).astype(np.uint8)

    def roundtrip():
        return unpack_bits(pack_bits(bits), DIM)

    out = benchmark(roundtrip)
    assert out.shape == (N, DIM)


# ----------------------------------------------------------------------
# Backend comparison: numpy vs native
# ----------------------------------------------------------------------
KERNEL_BENCH_SCHEMA_VERSION = 1
BENCH_OUT_ENV = "REPRO_KERNEL_BENCH_OUT"

#: workload sizes per REPRO_BENCH_SCALE preset (dim is always paper scale).
COMPARE_SIZES = {
    "fast": {"ham": (96, 192), "topk": (16, 4000, 5)},
    "bench": {"ham": (256, 512), "topk": (48, 12_000, 5)},
    "paper": {"ham": (392, 392), "topk": (64, 20_000, 5)},
}


def compare_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "bench")


def best_of(fn, repeats=3):
    """Best-of-N wall time of ``fn()`` in seconds (single-threaded call)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _compare(label, numpy_fn, native_fn, meta):
    numpy_s = best_of(numpy_fn)
    native_s = best_of(native_fn)
    return {
        "kernel": label,
        "numpy_s": round(numpy_s, 6),
        "native_s": round(native_s, 6),
        "speedup": round(numpy_s / native_s, 2) if native_s > 0 else None,
        **meta,
    }


def compare_hamming_block(sizes):
    m, n = sizes["ham"]
    A = random_packed(m, DIM, seed=10)
    B = random_packed(n, DIM, seed=11)
    npb = kernels.get_backend("numpy")
    nat = kernels.get_backend("native")
    np.testing.assert_array_equal(nat.hamming_block(A, B), npb.hamming_block(A, B))
    return _compare(
        "hamming_block",
        lambda: npb.hamming_block(A, B),
        lambda: nat.hamming_block(A, B),
        {"rows": m, "cols": n, "dim": DIM},
    )


def compare_topk_hamming(sizes):
    nq, nx, k = sizes["topk"]
    Q = random_packed(nq, DIM, seed=12)
    X = random_packed(nx, DIM, seed=13)
    npb = kernels.get_backend("numpy")
    nat = kernels.get_backend("native")
    d_np, i_np = npb.topk_hamming_tile(Q, X, k)
    d_nat, i_nat = nat.topk_hamming_tile(Q, X, k)
    np.testing.assert_array_equal(d_np, d_nat)
    np.testing.assert_array_equal(i_np, i_nat)
    return _compare(
        "topk_hamming",
        lambda: npb.topk_hamming_tile(Q, X, k),
        lambda: nat.topk_hamming_tile(Q, X, k),
        {"queries": nq, "candidates": nx, "k": k, "dim": DIM},
    )


@pytest.fixture(scope="module")
def native_ready():
    if not kernels.native_available():
        pytest.skip("native kernel backend is not built in this environment")
    return kernels.get_backend("native")


def test_native_topk_speedup_gate(native_ready):
    """CI gate: native top-k must beat numpy >= 3x single-core at 10k bits.

    The blessed trajectory records ~13x at paper scale on a dev box; the
    3x floor holds even at the ``fast`` preset on shared CI runners.
    """
    result = compare_topk_hamming(COMPARE_SIZES[compare_scale()])
    assert result["speedup"] is not None and result["speedup"] >= 3.0, result


def test_native_hamming_block_faster(native_ready):
    result = compare_hamming_block(COMPARE_SIZES[compare_scale()])
    assert result["speedup"] is not None and result["speedup"] > 1.0, result


def test_record_kernel_trajectory(native_ready):
    """Merge one measured run into BENCH_kernels.json (env-gated)."""
    out = os.environ.get(BENCH_OUT_ENV)
    if not out:
        pytest.skip(f"set {BENCH_OUT_ENV}=<path> to record a trajectory run")
    sizes = COMPARE_SIZES[compare_scale()]
    from repro import __version__

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repro_version": __version__,
        "preset": compare_scale(),
        "dim": DIM,
        "kernels": [
            compare_hamming_block(sizes),
            compare_topk_hamming(sizes),
        ],
    }
    path = Path(out)
    if path.is_file():
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["bench_schema_version"] == KERNEL_BENCH_SCHEMA_VERSION
        assert doc["scenario"] == "kernels"
    else:
        doc = {
            "bench_schema_version": KERNEL_BENCH_SCHEMA_VERSION,
            "scenario": "kernels",
            "runs": [],
        }
    doc["runs"] = sorted(
        list(doc["runs"]) + [entry], key=lambda r: str(r.get("timestamp", ""))
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
