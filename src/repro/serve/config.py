"""Serving configuration: one frozen dataclass, validated at construction.

Every knob the service exposes lives here so the CLI, the tests and the
benchmark construct servers the same way.  The defaults target the
paper's deployment sketch: a single-host service in front of a 10k-bit
Pima model, where a ~5 ms batching window is invisible next to network
latency but lets the fused encoder amortise its per-call overhead over
dozens of rows.

Pool knobs (PR 9): ``workers`` / ``mmap`` configure the
pre-fork serving pool (:mod:`repro.serve.pool`).  They resolve the same
way ``repro.parallel``'s worker settings do — explicit argument beats
environment beats default — through :func:`resolve_serve_config`, whose
environment spellings are ``REPRO_SERVE_WORKERS`` and
``REPRO_SERVE_MMAP``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class ServeConfig:
    """Immutable settings for :class:`~repro.serve.http.ModelServer`.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` asks the OS for a free port (tests);
        the bound port is reported by ``ModelServer.address``.
    max_batch:
        Maximum *rows* fused into one model call.  The micro-batcher
        flushes as soon as the pending rows reach this bound, so
        ``max_batch=1`` degenerates to a per-request predict loop (the
        benchmark baseline).
    max_wait_ms:
        How long the batcher waits after the first queued request for
        more work before flushing a partial batch.  Bounds the latency
        cost of batching.
    queue_size:
        Bound on requests waiting for the batcher.  Admission control:
        submissions beyond it are rejected immediately (HTTP 429) rather
        than queued into unbounded latency.
    max_rows_per_request:
        Per-request row cap (HTTP 413 beyond it), so one client cannot
        monopolise a whole flush window.
    request_timeout_s:
        Safety bound a request waits for its batch result before the
        server gives up and reports an internal error.
    log_requests:
        When True the HTTP handler logs one line per request to stderr
        (quiet by default: the service is benchmarked).
    workers:
        Processes in the pre-fork pool (:class:`repro.serve.pool.
        ServePool`).  1 keeps the classic single-process server;
        >1 forks that many workers sharing one ``SO_REUSEPORT`` socket.
    mmap:
        Load the artifact's payloads as read-only memory maps
        (``load_artifact(..., mmap=True)``) so pool workers share one
        set of physical pages instead of copying the packed arrays.
    watch_artifact:
        Poll the served artifact directory for manifest-sha changes and
        hot-swap in place when it moves (:class:`repro.lifecycle.watch.
        ArtifactWatcher`).  Pool mode verifies once in the supervisor and
        publishes a deploy record every worker applies.
    watch_interval_s:
        Poll period for ``watch_artifact``.
    candidate_artifact:
        Artifact directory mounted as a candidate at startup (shadow or
        A/B per ``candidate_mode``).  ``None`` starts with an empty
        candidate slot; candidates can always be mounted later through
        ``POST /v1/admin/candidate``.
    candidate_mode:
        ``"shadow"`` mirrors primary traffic to the candidate
        asynchronously; ``"ab"`` routes ``ab_fraction`` of live requests
        to it.
    ab_fraction:
        Fraction of live traffic the A/B splitter routes to the
        candidate (deterministic credit accumulator, not a coin flip).
    drift_threshold:
        Normalised Hamming-distance bound between the traffic centroid
        and the artifact's training centroid; beyond it the
        ``lifecycle.drift_alert`` gauge and the ``/readyz`` drift block
        flag drift (informational — never a 503).
    drift_window:
        Soft size of the traffic-centroid window: once ``2 * window``
        rows accumulate the counts are halved, so the centroid tracks
        recent traffic instead of all history.
    """

    host: str = "127.0.0.1"
    port: int = 8100
    max_batch: int = 64
    max_wait_ms: float = 5.0
    queue_size: int = 256
    max_rows_per_request: int = 1024
    request_timeout_s: float = 30.0
    log_requests: bool = False
    workers: int = 1
    mmap: bool = False
    watch_artifact: bool = False
    watch_interval_s: float = 2.0
    candidate_artifact: Optional[str] = None
    candidate_mode: str = "shadow"
    ab_fraction: float = 0.5
    drift_threshold: float = 0.25
    drift_window: int = 2048

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.max_rows_per_request < 1:
            raise ValueError(
                f"max_rows_per_request must be >= 1, got {self.max_rows_per_request}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.watch_interval_s <= 0:
            raise ValueError(
                f"watch_interval_s must be > 0, got {self.watch_interval_s}"
            )
        if self.candidate_mode not in ("shadow", "ab"):
            raise ValueError(
                f"candidate_mode must be shadow|ab, got {self.candidate_mode!r}"
            )
        if not (0.0 < self.ab_fraction <= 1.0):
            raise ValueError(
                f"ab_fraction must be in (0, 1], got {self.ab_fraction}"
            )
        if not (0.0 <= self.drift_threshold <= 1.0):
            raise ValueError(
                f"drift_threshold must be in [0, 1], got {self.drift_threshold}"
            )
        if self.drift_window < 1:
            raise ValueError(
                f"drift_window must be >= 1, got {self.drift_window}"
            )


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an int, got {raw!r}") from exc


def _env_bool(name: str) -> Optional[bool]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{name} must be a boolean flag, got {raw!r}")


def resolve_serve_config(
    *,
    workers: Optional[int] = None,
    mmap: Optional[bool] = None,
    **fields: Any,
) -> ServeConfig:
    """Combine explicit pool knobs with environment defaults.

    Mirrors :func:`repro.parallel.pool.effective_workers`: an explicit
    (non-``None``) argument wins, otherwise the matching environment
    variable (``REPRO_SERVE_WORKERS`` / ``REPRO_SERVE_MMAP``), otherwise
    the dataclass default.  Any other :class:`ServeConfig` field passes
    through ``fields`` unchanged, so the CLI and tests build their whole
    config in one call.
    """
    if workers is None:
        workers = _env_int("REPRO_SERVE_WORKERS")
    if mmap is None:
        mmap = _env_bool("REPRO_SERVE_MMAP")
    defaults = ServeConfig()
    return ServeConfig(
        workers=defaults.workers if workers is None else workers,
        mmap=defaults.mmap if mmap is None else mmap,
        **fields,
    )


__all__ = ["ServeConfig", "resolve_serve_config"]
