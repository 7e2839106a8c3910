"""Shared pieces of the benchmark: paths, environment, accounting, output.

Every workload reduces its run to an :class:`Outcome` (one latency sample
per attempted operation, failures as ``inf``) and hands it to
:func:`end_to_end_metrics`; :func:`emit` prints the metrics by name and
unit and, last, the one-line JSON result.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (artifacts, traces); git-ignored.
WORK = ROOT / ".perfbench"

#: Hypervector width of every workload (the paper's 10k bits).
DIM = 10_000

#: Environment knobs that would move the program off its defaults.  The
#: kernel backend is whatever default resolution gives (``REPRO_KERNEL``
#: unset); worker/pool/tracing knobs stay at their defaults so every run
#: measures the same configuration.
CLEARED_ENV = (
    "REPRO_KERNEL",
    "REPRO_OBS",
    "REPRO_WORKERS",
    "REPRO_BACKEND",
    "REPRO_SERVE_WORKERS",
    "REPRO_SERVE_SHARDS",
    "REPRO_SERVE_MMAP",
)

#: Candidate tail percentiles (the "nines"), highest supported one wins.
LADDER = (50.0, 90.0, 99.0, 99.9)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Per-layer metrics of the traced run, by name and unit.  Every traced
#: run reports all of them; a layer that does not run on a workload
#: reads 0.  ``_ms`` metrics are self time per end-to-end operation (a
#: request, or a LOO pass), i.e. the layer's summed self time over the
#: traced phase divided by the operations it completed.
PER_LAYER = {
    "serve.http.self_ms": "ms",
    "serve.http.requests_per_connection": "count",
    "serve.service.self_ms": "ms",
    "serve.batcher.queue_wait_ms": "ms",
    "serve.batcher.rows_per_flush": "count",
    "serve.rejected": "count",
    "serve.errors": "count",
    "ml.pipeline.self_ms": "ms",
    "core.records.transform_ms": "ms",
    "core.records.rows_per_call": "count",
    "core.records.fit_ms": "ms",
    "core.classifier.predict_ms": "ms",
    "eval.crossval.loo_ms": "ms",
    "core.search.loo_topk_ms": "ms",
    "core.search.distance_pairs": "count",
    "core.search.bytes_scanned": "bytes",
    "lifecycle.drift.observe_ms": "ms",
    "persist.load_artifact_s": "s",
    "data.generate_s": "s",
    "trace.overhead_pct": "%",
}


def prepare_environment() -> None:
    """Make ``repro`` importable from the checkout and clear the knobs."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    parts = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)


@dataclass
class Result:
    """One run's printed result: metrics by name, notes, and accounting."""

    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    attempted: int
    failed: int

    @property
    def correct(self) -> bool:
        return self.failed == 0


def layer_metrics(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """All :data:`PER_LAYER` metrics; layers absent from ``values`` read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown layer metrics {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}


def overhead_pct(untraced_ops_s: float, traced_ops_s: float) -> float:
    """Throughput lost to tracing, as a percentage of the untraced run."""
    return 100.0 * (untraced_ops_s - traced_ops_s) / untraced_ops_s


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one measured phase did.

    ``latencies_s`` holds one entry per attempted operation; a failed
    operation is ``inf`` so it misses every latency limit.  ``rows`` counts
    rows classified by successful operations only.
    """

    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    rows: int = 0
    wall_s: float = 0.0
    reasons: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def add(self, seconds: float, rows: int, error: Optional[str]) -> None:
        """Account one operation: ``error`` is None when it succeeded."""
        if error is None:
            self.latencies_s.append(seconds)
            self.rows += rows
        else:
            self.latencies_s.append(math.inf)
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(error)

    def merge(self, other: "Outcome") -> None:
        self.latencies_s.extend(other.latencies_s)
        self.failed += other.failed
        self.rows += other.rows
        self.wall_s += other.wall_s
        self.reasons.extend(other.reasons[: max(0, 5 - len(self.reasons))])


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, beyond)`` for the highest supported tail.

    Nearest-rank percentiles from :data:`LADDER`; a percentile qualifies
    when at least :data:`MIN_BEYOND` samples lie beyond its rank.  When
    the sample is too small for any of them the maximum is returned as
    percentile 100 with nothing beyond it.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    best = (100.0, ordered[-1], 0)
    for p in LADDER:
        # The epsilon keeps float error (99.9 * 10000 / 100) off the rank.
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            best = (p, ordered[rank - 1], beyond)
    return best


def end_to_end_metrics(
    outcome: Outcome, *, setup_s: float, peak_rss_mb: float
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The end-to-end metrics and the notes printed beside them."""
    if outcome.attempted == 0:
        raise RuntimeError("no operation was attempted")
    wall = max(outcome.wall_s, 1e-9)
    p50 = statistics.median(outcome.latencies_s)
    pct, tail, beyond = tail_percentile(outcome.latencies_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (outcome.completed / wall, "1/s"),
        "rows_per_s": (outcome.rows / wall, "rows/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    notes = [
        f"latency_tail_ms is p{pct:g} of n={outcome.attempted} "
        f"({beyond} samples beyond it)",
        f"failed_ratio = {outcome.failed / outcome.attempted:.6g} "
        f"({outcome.failed}/{outcome.attempted} operations failed)",
    ]
    return metrics, notes


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def fingerprint(workload: str, seed: int) -> Dict[str, object]:
    import numpy

    from repro.kernels import active_backend, available_backends

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": active_backend(),
        "available_backends": available_backends(),
        "dim": DIM,
        "git_commit": git_commit(),
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _json_number(value: float) -> Optional[float]:
    return float(value) if math.isfinite(value) else None


def emit(result: Result) -> None:
    """Print every metric by name and unit, then the JSON result line."""
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for note in result.notes:
        print(f"note {note}")
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": _json_number(value), "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }
    print(json.dumps(line), flush=True)


def write_trace(workload: str, seed: int, spans: List[dict]) -> Path:
    """Write a traced run's spans under :data:`WORK`; returns the path."""
    out = WORK / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(spans), encoding="utf-8")
    print(f"trace {path.relative_to(ROOT)} ({len(spans)} spans)", flush=True)
    return path


def peak_rss_self_mb() -> float:
    """This process's peak resident set size in MiB."""
    import resource

    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
