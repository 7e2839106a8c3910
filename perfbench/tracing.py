"""In-memory spans recorded from the benchmark's own files.

A span is a plain dict: ``id``, ``name``, ``start``, ``end`` (seconds on
``time.perf_counter``), ``parent`` (a span id, or ``None`` for a root)
and ``request_id``, plus optional attributes.  Spans stay in a list
until :meth:`SpanRecorder.dump` writes them out when the run ends.

Nothing here is imported by the program under test: the traced serving
launcher and the offline workload wrap the program's layer entry points
with :meth:`SpanRecorder.wrap` from outside.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


class SpanRecorder:
    """Collects spans; nests them per thread through a parent stack."""

    def __init__(self, prefix: str = "s") -> None:
        self.spans: List[Dict[str, Any]] = []
        self._prefix = prefix
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1] if stack else None

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[str] = None,
        request_id: Optional[str] = None,
        span_id: Optional[str] = None,
        **attrs: Any,
    ) -> str:
        """Store one finished span (list append is atomic under the GIL)."""
        span_id = span_id or self.new_id()
        entry = {
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "request_id": request_id,
        }
        entry.update(attrs)
        self.spans.append(entry)
        return span_id

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Optional[str] = None,
        request_id: Optional[str] = None,
        span_id: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[Dict[str, Any]]:
        """Time the body; the innermost open span of this thread is the
        default parent.  The yielded dict collects extra attributes."""
        span_id = span_id or self.new_id()
        if parent is None:
            parent = self.current()
        stack = self._stack()
        stack.append(span_id)
        extra: Dict[str, Any] = dict(attrs)
        start = time.perf_counter()
        try:
            yield extra
        finally:
            end = time.perf_counter()
            stack.pop()
            self.record(
                name, start, end, parent=parent, request_id=request_id,
                span_id=span_id, **extra,
            )

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``attrs(*args)`` adds
        attributes computed from the arguments."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            extra = attrs(*args) if attrs is not None else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def covered(start: float, end: float, intervals: Iterable[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Dict[str, Any], children: Iterable[Dict[str, Any]]) -> float:
    """Span duration minus the part of it its child spans cover."""
    dur = span["end"] - span["start"]
    return dur - covered(
        span["start"], span["end"], ((c["start"], c["end"]) for c in children)
    )


def children_index(spans: Iterable[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """``parent id -> child spans``."""
    index: Dict[str, List[Dict[str, Any]]] = {}
    for s in spans:
        if s.get("parent") is not None:
            index.setdefault(s["parent"], []).append(s)
    return index
