"""Span-based tracing with parent/child nesting and worker propagation.

The programming model is one context manager::

    from repro.obs import span

    with span("encode.transform", rows=int(n)):
        ...

Spans nest: a span opened inside another (same thread) records the outer
span as its parent, so the exporters can reconstruct the call tree and
compute wall-clock coverage.  Completed spans accumulate in a process-
local buffer (:func:`drain_spans` / :func:`spans`), and each completion
feeds a ``span.<name>.seconds`` histogram in the default metrics
registry so Prometheus-style latency distributions come for free.

Zero-cost when disabled
-----------------------
Like :mod:`repro.utils.contracts`, the subsystem is armed by the
``REPRO_OBS`` environment variable (truthy values: ``1/true/yes/on``).
When disabled, :func:`span` returns a shared singleton null context
manager and records nothing — the instrumentation cost in the hot paths
is one module-global check per call site.  :func:`enable` /
:func:`disable` flip the switch at runtime for tests and the
``repro-obs`` CLI.

Worker propagation
------------------
:func:`repro.parallel.pool.parallel_map` runs its items on worker
threads, which would otherwise start with an empty span stack; each
worker adopts the dispatcher's current span as its parent via
:func:`run_with_parent`, so its spans nest under the dispatch-time span.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import REGISTRY

_TRUTHY = {"1", "true", "yes", "on"}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "").strip().lower() in _TRUTHY


@dataclass
class SpanRecord:
    """One completed span: identity, tree position, timing, attributes."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float          # wall-clock epoch seconds (time.time)
    duration: float       # seconds, measured with perf_counter
    attrs: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "pid": self.pid,
        }


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Live span context manager; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_start", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None

    def set(self, **attrs: Any) -> "_ActiveSpan":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._open(self)
        self._start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        duration = time.perf_counter() - self._t0
        self._tracer._close(self, self._start, duration)
        return False


class _Tls(threading.local):
    def __init__(self) -> None:
        self.stack: List[_ActiveSpan] = []
        self.base_parent: Optional[int] = None


class Tracer:
    """Process-local span collector.

    Holds the enabled flag, the per-thread span stack (nesting), a
    monotonically increasing span-id counter, and the completed-span
    buffer.  All public mutation happens through :func:`span` and the
    module-level helpers; tests may instantiate private tracers.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._completed: List[SpanRecord] = []
        self._tls = _Tls()

    # -- span lifecycle -------------------------------------------------
    def start(self, name: str, attrs: Dict[str, Any]) -> _ActiveSpan:
        return _ActiveSpan(self, name, attrs)

    def _open(self, active: _ActiveSpan) -> None:
        active.span_id = next(self._ids)
        stack = self._tls.stack
        active.parent_id = stack[-1].span_id if stack else self._tls.base_parent
        stack.append(active)

    def _close(self, active: _ActiveSpan, start: float, duration: float) -> None:
        stack = self._tls.stack
        if stack and stack[-1] is active:
            stack.pop()
        record = SpanRecord(
            name=active.name,
            span_id=active.span_id,
            parent_id=active.parent_id,
            start=start,
            duration=duration,
            attrs=active.attrs,
            pid=os.getpid(),
        )
        with self._lock:
            self._completed.append(record)
        REGISTRY.histogram(f"span.{active.name}.seconds").observe(duration)

    # -- buffer access --------------------------------------------------
    def current_span_id(self) -> Optional[int]:
        stack = self._tls.stack
        return stack[-1].span_id if stack else self._tls.base_parent

    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._completed)

    def drain(self) -> List[SpanRecord]:
        with self._lock:
            out = self._completed
            self._completed = []
        return out

    def reset(self) -> None:
        with self._lock:
            self._completed = []
        self._tls.stack = []
        self._tls.base_parent = None


#: The process-local tracer; armed from REPRO_OBS at import time.
TRACER = Tracer(enabled=_env_enabled())


def enabled() -> bool:
    """True when tracing is armed (``REPRO_OBS`` or :func:`enable`)."""
    return TRACER.enabled


def enable() -> None:
    """Arm tracing at runtime (used by tests and the ``repro-obs`` CLI)."""
    TRACER.enabled = True


def disable() -> None:
    """Disarm tracing; existing records stay until :func:`reset`."""
    TRACER.enabled = False


def reset() -> None:
    """Clear recorded spans and this thread's span stack."""
    TRACER.reset()


def span(name: str, **attrs: Any):
    """Open a span; a shared no-op when tracing is disabled."""
    if not TRACER.enabled:
        return NULL_SPAN
    return TRACER.start(name, attrs)


def spans() -> List[SpanRecord]:
    """Snapshot of completed spans (does not clear the buffer)."""
    return TRACER.records()


def drain_spans() -> List[SpanRecord]:
    """Remove and return all completed spans."""
    return TRACER.drain()


def current_span_id() -> Optional[int]:
    """Id of the innermost open span on this thread, if any."""
    return TRACER.current_span_id()


def run_with_parent(
    parent_id: Optional[int], fn: Callable[..., Any], *args: Any
) -> Any:
    """Call ``fn`` with this thread's span-stack base seeded to ``parent_id``.

    Used by :func:`repro.parallel.pool.parallel_map` so spans opened
    inside worker threads nest under the span that was active in the
    dispatching thread.
    """
    tls = TRACER._tls
    prev = tls.base_parent
    tls.base_parent = parent_id
    try:
        return fn(*args)
    finally:
        tls.base_parent = prev

