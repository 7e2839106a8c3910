"""Lightweight, dependency-free observability for the HDC hot paths.

Public surface:

* :func:`span` — ``with span("encode.transform", rows=n):`` tracing with
  parent/child nesting, propagated into ``repro.parallel`` worker
  threads; a shared no-op unless armed.
* :data:`REGISTRY` / :class:`MetricsRegistry` — process-local counters,
  gauges and fixed-bucket histograms.
* :mod:`repro.obs.export` — JSON and Prometheus text renderers plus the
  :func:`~repro.obs.export.span_coverage` summary.
* ``repro-obs`` CLI (:mod:`repro.obs.cli`) — run any script with tracing
  armed and export the result.

Armed by ``REPRO_OBS=1`` (or :func:`enable` at runtime); disabled, every
instrumentation point costs one global check.  See DESIGN.md §8.
"""

from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.spans import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    TRACER,
    current_span_id,
    disable,
    drain_spans,
    enable,
    enabled,
    reset,
    run_with_parent,
    span,
    spans,
)
from repro.obs.export import snapshot, span_coverage, to_json, to_prometheus

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
    "TRACER",
    "current_span_id",
    "disable",
    "drain_spans",
    "enable",
    "enabled",
    "reset",
    "run_with_parent",
    "span",
    "spans",
    "snapshot",
    "span_coverage",
    "to_json",
    "to_prometheus",
]
