"""Worker-scaling sweep: how pool throughput grows with worker count.

The question PR 9's pool must answer quantitatively: *does adding
workers add throughput, and where does it stop?*  Two engines share one
report shape, and every report says which engine produced it:

* ``engine="simulated"`` — a deterministic discrete-event model of the
  pre-fork pool: one serialised dispatcher (the shared accept/parse
  path) feeding a FIFO central queue drained by ``n_workers`` identical
  servers.  Service times come from the caller — a constant, an
  ``f(request_index) -> seconds`` model, or a wall-clock measurement of
  the real fused-predict path via :func:`measure_service_time`.  This is
  the honest way to state N-worker scaling on a single-core CI box
  (running four processes on one core measures the scheduler, not the
  pool); it runs on the same queue model as the ``workers="inline"``
  load engine (:func:`~repro.scenarios.load.simulate_fifo`) and the
  queueing self-checks in ``bench_scenarios.py``.
* ``engine="http"`` — real requests against a live
  :class:`~repro.serve.pool.ServePool` per worker count, for multi-core
  machines where wall-clock scaling is measurable.

Both engines emit one :class:`~repro.scenarios.load.LoadReport` per
worker count; :class:`WorkerScalingReport` adds the speedup-vs-baseline
series and serialises into the ``sweep`` section of a BENCH run entry
(``BENCH_serve_scale.json`` is the committed trajectory).

Simulation fidelity notes: the dispatcher stage models the part of the
pool that does *not* parallelise (kernel accept, header parse, JSON
decode happen per-request regardless of worker count), so sweeps show
Amdahl behaviour — near-linear while ``dispatch_s << service_s /
n_workers``, flat once the serial stage saturates.  The central queue
is FIFO in arrival order and each request runs on the earliest-free
worker, which matches ``SO_REUSEPORT``'s behaviour in the aggregate
without modelling its per-connection hashing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import span
from repro.scenarios.errors import ScenarioError
from repro.scenarios.load import (
    HttpTransport,
    LoadReport,
    run_load,
    simulate_fifo,
    summarize,
)
from repro.scenarios.metrics import record_load_run
from repro.scenarios.schema import SLOSpec, TrafficSpec

ServiceModel = Union[float, Callable[[int], float]]


def _service_fn(service_s: ServiceModel) -> Callable[[int], float]:
    if callable(service_s):
        return lambda i: float(service_s(i))
    fixed = float(service_s)
    if fixed <= 0:
        raise ScenarioError(f"service_s must be > 0, got {fixed}")
    return lambda i: fixed


def simulate_pool(
    traffic: TrafficSpec,
    *,
    n_workers: int,
    service_s: ServiceModel,
    dispatch_s: float = 0.0,
    status_fn: Optional[Callable[[int], int]] = None,
) -> Tuple[List[float], List[int], float]:
    """Discrete-event run of ``traffic`` against an N-worker pool.

    Feeds a service-time model (``service_s`` per request, optional
    ``status_fn`` error injector) into
    :func:`~repro.scenarios.load.simulate_fifo`, the queue model the
    inline load engine runs on: one serialised dispatcher
    (``dispatch_s`` each) in front of ``n_workers`` FIFO servers.

    Returns ``(latencies_s, statuses, duration_s)`` ready for
    :func:`~repro.scenarios.load.summarize`.
    """
    service = _service_fn(service_s)

    def request(i: int) -> Tuple[int, float]:
        return (200 if status_fn is None else status_fn(i)), service(i)

    return simulate_fifo(traffic, request, n_workers=n_workers, dispatch_s=dispatch_s)


def measure_service_time(
    predict_once: Callable[[], Any],
    *,
    repeats: int = 9,
    warmup: int = 2,
) -> float:
    """Median wall-clock seconds of one fused predict call.

    Feed the result into :func:`simulate_pool` / :func:`sweep_workers`
    as the simulated engine's ``service_s`` — the sweep's *ratios* stay
    deterministic while its absolute scale reflects the real model.
    """
    if repeats < 1:
        raise ScenarioError(f"repeats must be >= 1, got {repeats}")
    for _ in range(max(0, warmup)):
        predict_once()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        predict_once()
        times.append(time.perf_counter() - started)
    times.sort()
    return times[len(times) // 2]


@dataclass
class WorkerScalingReport:
    """One sweep: a LoadReport per worker count plus the scaling series."""

    engine: str
    workers: List[int]
    runs: Dict[int, LoadReport]
    speedup: Dict[int, float]
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def baseline_workers(self) -> int:
        return self.workers[0]

    @property
    def max_speedup(self) -> float:
        return self.speedup[self.workers[-1]]

    @property
    def error_free(self) -> bool:
        return all(r.error_rate == 0.0 for r in self.runs.values())

    def to_dict(self) -> Dict[str, Any]:
        """The ``sweep`` section of a BENCH run entry (JSON keys are
        stringified worker counts, mirroring ``status_counts``)."""
        return {
            "engine": self.engine,
            "workers": list(self.workers),
            "params": dict(self.params),
            "runs": {str(n): self.runs[n].to_dict() for n in self.workers},
            "speedup": {str(n): float(self.speedup[n]) for n in self.workers},
        }


def sweep_workers(
    traffic: TrafficSpec,
    *,
    workers: Sequence[int] = (1, 2, 4),
    engine: str = "simulated",
    service_s: Optional[ServiceModel] = None,
    dispatch_s: float = 0.0,
    status_fn: Optional[Callable[[int], int]] = None,
    slo: Optional[SLOSpec] = None,
    pool_factory: Optional[Callable[[int], Any]] = None,
    rows: Optional[np.ndarray] = None,
) -> WorkerScalingReport:
    """Run ``traffic`` once per worker count; report throughput scaling.

    Parameters
    ----------
    workers:
        Pool sizes to sweep, ascending; the first is the speedup
        baseline (the acceptance gate uses ``(1, 2, 4)``).
    engine:
        ``"simulated"`` (deterministic discrete-event model; requires
        ``service_s``) or ``"http"`` (live pools; requires
        ``pool_factory``).
    service_s / dispatch_s / status_fn:
        Simulated engine knobs — per-request service time, the
        serialised dispatcher cost, and an optional error injector.
    pool_factory:
        HTTP engine: ``factory(n_workers)`` context manager yielding a
        base URL for a pool of that size (see
        :func:`artifact_pool_factory`).
    slo / rows:
        Forwarded to the per-run report / the HTTP load generator.
    """
    traffic.validate()
    counts = [int(n) for n in workers]
    if not counts or sorted(set(counts)) != counts:
        raise ScenarioError(
            f"workers must be strictly ascending and non-empty, got {list(workers)!r}"
        )
    if counts[0] < 1:
        raise ScenarioError(f"worker counts must be >= 1, got {counts[0]}")
    if engine not in ("simulated", "http"):
        raise ScenarioError(f"engine must be 'simulated' or 'http', got {engine!r}")
    if engine == "simulated" and service_s is None:
        raise ScenarioError("the simulated engine needs a service_s model")
    if engine == "http" and pool_factory is None:
        raise ScenarioError("the http engine needs a pool_factory")
    slo = slo or SLOSpec()

    runs: Dict[int, LoadReport] = {}
    with span("scenarios.worker_sweep", engine=engine, steps=len(counts)):
        for n in counts:
            if engine == "simulated":
                latencies, statuses, duration = simulate_pool(
                    traffic,
                    n_workers=n,
                    service_s=service_s,
                    dispatch_s=dispatch_s,
                    status_fn=status_fn,
                )
                report = summarize(traffic, slo, latencies, statuses, duration)
                record_load_run(report)
            else:
                with pool_factory(n) as base_url:
                    report = run_load(
                        traffic,
                        HttpTransport(base_url, timeout_s=traffic.timeout_s),
                        slo=slo,
                        rows=rows,
                        workers="threads",
                    )
            runs[n] = report

    base = runs[counts[0]].throughput_rps
    speedup = {
        n: (runs[n].throughput_rps / base) if base > 0 else 0.0 for n in counts
    }
    params: Dict[str, Any] = {}
    if engine == "simulated":
        params["dispatch_ms"] = float(dispatch_s) * 1000.0
        if not callable(service_s):
            params["service_ms"] = float(service_s) * 1000.0
    return WorkerScalingReport(
        engine=engine, workers=counts, runs=runs, speedup=speedup, params=params
    )


def check_scaling(
    report: WorkerScalingReport,
    *,
    at_workers: int,
    min_speedup: float,
) -> List[str]:
    """Gate a sweep; returns human-readable violations (empty = pass).

    The PR 9 acceptance bar is ``at_workers=4, min_speedup=2.5`` with a
    zero error rate at every pool size.
    """
    violations: List[str] = []
    if at_workers not in report.runs:
        violations.append(
            f"sweep has no {at_workers}-worker run (workers: {report.workers})"
        )
        return violations
    got = report.speedup[at_workers]
    if got < min_speedup:
        violations.append(
            f"throughput at {at_workers} workers is {got:.2f}x the "
            f"{report.baseline_workers}-worker baseline (required: "
            f">= {min_speedup:.2f}x)"
        )
    for n in report.workers:
        if report.runs[n].error_rate != 0.0:
            violations.append(
                f"{n}-worker run had errors: {report.runs[n].status_counts}"
            )
    return violations


def artifact_pool_factory(
    artifact: Any, config: Optional[Any] = None
) -> Callable[[int], Any]:
    """``pool_factory`` for the HTTP engine: one live ServePool per size.

    Each sweep step boots a fresh :class:`~repro.serve.pool.ServePool`
    over ``artifact`` with that step's worker count on an ephemeral
    port, yields its base URL, and tears it down before the next step.
    """
    from dataclasses import replace as dc_replace

    from repro.serve import ServeConfig, ServePool

    base = config if config is not None else ServeConfig()

    @contextmanager
    def factory(n_workers: int) -> Iterator[str]:
        pool = ServePool(artifact, dc_replace(base, workers=n_workers, port=0))
        host, port = pool.start()
        try:
            yield f"http://{host}:{port}"
        finally:
            pool.stop()

    return factory


__all__ = [
    "WorkerScalingReport",
    "artifact_pool_factory",
    "check_scaling",
    "measure_service_time",
    "simulate_pool",
    "sweep_workers",
]
