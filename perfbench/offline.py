"""The ``paper_loo`` workload: Table II's 10k-bit leave-one-out pass, repeated.

One operation is one pass over ``pima_r``, ``pima_m`` and ``sylhet`` from
:func:`repro.api.default_datasets` (paper configuration, data seed = the
workload seed): ``RecordEncoder(...).fit(X)``, ``.transform(X)``, then
``leave_one_out_hamming(packed, y)``.  Every pass is checked bit for bit
against ``transform_reference`` and ``leave_one_out_hamming_reference``,
computed before timing in a child process so that the oracles' dense
matrices do not count toward this process's peak memory.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

import harness
import tracing
from harness import HERE, WORK, Outcome, Result

DATASETS = ("pima_r", "pima_m", "sylhet")
#: Dataset generations timed before the first pass (after one untimed
#: one that pays the imports).  One more is timed after every pass, so
#: the samples span the whole run; ``setup_s`` is their median.
SETUP_REPEATS = 10


def generate(seed: int):
    """The paper configuration with the workload seed as its data seed."""
    from repro.api import ExperimentConfig, default_datasets

    config = dataclasses.replace(ExperimentConfig.paper(), data_seed=seed)
    return config, default_datasets(config)


def _encoder(config, ds):
    from repro.api import RecordEncoder
    from repro.utils.rng import derive_seed

    return RecordEncoder(
        specs=ds.specs, dim=config.dim, seed=derive_seed(config.seed, "encode", ds.name)
    )


def save_reference(seed: int, path: str) -> None:
    """Write the oracle encodings and LOO predictions of every dataset."""
    from repro.api import leave_one_out_hamming_reference

    config, data = generate(seed)
    arrays = {}
    for name in DATASETS:
        ds = data[name]
        packed = _encoder(config, ds).fit(ds.X).transform_reference(ds.X)
        arrays[f"{name}.packed"] = packed
        arrays[f"{name}.predictions"] = leave_one_out_hamming_reference(packed, ds.y).y_pred
    np.savez(path, **arrays)


def reference(seed: int) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """:func:`save_reference` run in a child process, loaded back."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"reference-{os.getpid()}.npz"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import offline; "
        "offline.save_reference(int(sys.argv[2]), sys.argv[3])"
    )
    try:
        subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(seed), str(path)],
            check=True, timeout=120,
        )
        with np.load(path, allow_pickle=False) as z:
            return {
                name: (z[f"{name}.packed"], z[f"{name}.predictions"]) for name in DATASETS
            }
    finally:
        path.unlink(missing_ok=True)


def one_pass(config, data, rec: Optional[tracing.SpanRecorder] = None, pass_id: str = ""):
    """Fit, encode and leave-one-out every dataset once."""
    from repro.api import leave_one_out_hamming

    def span(name, **attrs):
        return rec.span(name, **attrs) if rec is not None else nullcontext()

    out = {}
    with span("paper_loo.pass", request_id=pass_id):
        for name in DATASETS:
            ds = data[name]
            with span("core.records.fit", dataset=name):
                encoder = _encoder(config, ds).fit(ds.X)
            with span("core.records.transform", dataset=name, rows=int(ds.X.shape[0])):
                packed = encoder.transform(ds.X)
            with span("eval.crossval.loo", dataset=name):
                predictions = leave_one_out_hamming(packed, ds.y).y_pred
            out[name] = (packed, predictions)
    return out


def check_pass(result, refs) -> Optional[str]:
    """None when every dataset matches its oracle bit for bit."""
    for name in DATASETS:
        packed, predictions = result[name]
        ref_packed, ref_predictions = refs[name]
        if packed.shape != ref_packed.shape or not np.array_equal(packed, ref_packed):
            where = (
                f"rows {np.flatnonzero(np.any(packed != ref_packed, axis=1))[:5].tolist()}"
                if packed.shape == ref_packed.shape
                else f"shape {packed.shape}, expected {ref_packed.shape}"
            )
            return f"{name}: encoding differs from transform_reference ({where})"
        if not np.array_equal(predictions, ref_predictions):
            i = int(np.flatnonzero(predictions != ref_predictions)[0])
            return (
                f"{name}: LOO prediction {i} is {predictions[i]!r}, "
                f"reference says {ref_predictions[i]!r}"
            )
    return None


def timed_generation(seed: int, setups: List[float]):
    """Generate the datasets once, appending the seconds it took."""
    t = time.perf_counter()
    config, data = generate(seed)
    setups.append(time.perf_counter() - t)
    return config, data


def measure(
    config, data, refs, seconds: float, recorders=(None,), setups: Optional[List[float]] = None
) -> List[Outcome]:
    """One checked warm-up pass, then passes until ``seconds`` elapse.

    Pass ``k`` records its spans into ``recorders[k % len(recorders)]``
    (``None``: untraced); returns one :class:`Outcome` per recorder.
    Alternating pass by pass lets a slow spell of the machine hit traced
    and untraced passes alike.  With ``setups``, a timed dataset
    generation follows every pass (outside the pass's time).
    """
    outcomes = [Outcome() for _ in recorders]
    error = check_pass(one_pass(config, data), refs)
    if error is not None:
        outcomes[0].add(0.0, 0, f"warm-up: {error}")
    rows = sum(int(data[name].X.shape[0]) for name in DATASETS)
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        outcome, rec = outcomes[k % len(recorders)], recorders[k % len(recorders)]
        t = time.perf_counter()
        result = one_pass(config, data, rec, f"pass-{k}")
        dt = time.perf_counter() - t
        outcome.wall_s += dt
        outcome.add(dt, rows, check_pass(result, refs))
        if setups is not None:
            timed_generation(config.data_seed, setups)
        k += 1
        if time.perf_counter() >= deadline and k >= len(recorders):
            return outcomes


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    generate(seed)
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        config, data = timed_generation(seed, setups)
    refs = reference(seed)
    if not trace:
        (outcome,) = measure(config, data, refs, seconds, setups=setups)
        metrics, notes = harness.end_to_end_metrics(
            outcome,
            setup_s=statistics.median(setups),
            peak_rss_mb=harness.peak_rss_self_mb(),
        )
        notes.append(f"setup_s is the median of {len(setups)} dataset generations")
        notes.extend(f"failure: {r}" for r in outcome.reasons)
        return Result(metrics, notes, outcome.attempted, outcome.failed)

    import repro.eval.crossval as crossval

    rec = tracing.SpanRecorder()
    loo_topk = crossval.loo_topk_hamming
    traced_loo_topk = rec.wrap(loo_topk, "core.search.loo_topk")

    def loo_topk_hamming(*args, **kwargs):
        # Only traced passes (those inside an open span) record the search.
        fn = traced_loo_topk if rec.current() is not None else loo_topk
        return fn(*args, **kwargs)

    crossval.loo_topk_hamming = loo_topk_hamming
    try:
        plain, traced = measure(config, data, refs, seconds, (None, rec), setups)
    finally:
        crossval.loo_topk_hamming = loo_topk
    values = loo_layers(rec.spans, data, traced.completed)
    values["data.generate_s"] = statistics.median(setups)
    values["trace.overhead_pct"] = harness.overhead_pct(
        plain.completed / plain.wall_s, traced.completed / traced.wall_s
    )
    harness.write_trace(name, seed, rec.spans)
    outcome = plain
    outcome.merge(traced)
    notes = [f"failure: {r}" for r in outcome.reasons]
    notes.append(
        "core.search.distance_pairs and core.search.bytes_scanned are computed "
        "from tensor sizes (n(n-1)/2 record pairs x 8-byte words), not counted"
    )
    return Result(harness.layer_metrics(values), notes, outcome.attempted, outcome.failed)


def loo_layers(spans, data, passes: int) -> Dict[str, float]:
    """Per-pass layer metrics of the traced passes."""
    if passes < 1:
        raise RuntimeError("no successful traced pass")
    kids = tracing.children_index(spans)
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    rows = 0
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + tracing.self_time(
            s, kids.get(s["id"], [])
        )
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        rows += s.get("rows", 0)
    words = (harness.DIM + 63) // 64
    pairs = sum(n * (n - 1) // 2 for n in (int(data[d].X.shape[0]) for d in DATASETS))
    return {
        "core.records.fit_ms": 1e3 * total.get("core.records.fit", 0.0) / passes,
        "core.records.transform_ms": 1e3 * total.get("core.records.transform", 0.0) / passes,
        "core.records.rows_per_call": rows / max(calls.get("core.records.transform", 0), 1),
        "eval.crossval.loo_ms": 1e3 * total.get("eval.crossval.loo", 0.0) / passes,
        "core.search.loo_topk_ms": 1e3 * total.get("core.search.loo_topk", 0.0) / passes,
        "core.search.distance_pairs": float(pairs),
        "core.search.bytes_scanned": float(pairs * words * 8),
    }


__all__ = ["run"]
