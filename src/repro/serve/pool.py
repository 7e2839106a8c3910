"""Pre-fork multi-worker serving pool over a shared-memory artifact (PR 9).

:class:`ServePool` is the supervisor: it verifies the artifact **once**
(:func:`repro.persist.verify_artifact`, one streamed SHA-256 pass), then
forks ``config.workers`` worker processes.  Each worker loads the same
artifact read-only — with ``config.mmap`` the packed payload arrays are
``np.load(..., mmap_mode="r")`` maps, so every worker shares one set of
physical pages instead of copying the store — and runs the standard
:class:`~repro.serve.http.ModelServer` accept loop.

Socket sharing
--------------
Two strategies, picked automatically:

* ``reuseport`` (default where available): every worker binds its own
  socket to the same address with ``SO_REUSEPORT`` set and the kernel
  load-balances incoming connections across them.  The supervisor keeps
  a bound-but-not-listening placeholder socket in the same reuse group,
  which pins the address (and resolves ``port=0`` to a concrete port
  before any worker forks) without ever receiving connections.
* ``inherit`` (fallback): the supervisor binds + listens once before
  forking and every worker accepts on the inherited file descriptor.

Cross-worker observability
--------------------------
Workers periodically snapshot their process-local metrics registry into
a shared scratch directory; answering ``GET /metrics`` flushes the local
snapshot and folds every worker's file through
:meth:`repro.obs.metrics.MetricsRegistry.merge` (counters/histograms
add, gauges last-write-wins), so any worker renders the pool-wide view.

Aggregated readiness
--------------------
The supervisor maintains a roster file (``pool.json``) and reaps dead
children from a monitor thread; every worker's ``GET /readyz`` checks
the roster (plus a direct liveness probe of its siblings), so one dead
worker turns the whole pool's ``/readyz`` 503 even though the kernel
still happily routes connections to the survivors.

Worker restarts (PR 10)
-----------------------
The monitor thread also *replaces* dead workers: a crashed child is
re-forked with bounded exponential backoff (up to
:data:`MAX_WORKER_RESTARTS` replacements per pool lifetime, so a
crash-looping artifact cannot fork-bomb the host), counted by the
``serve.worker_restarts`` metric, which the supervisor folds into the
pool-wide ``/metrics`` view through a ``metrics-supervisor.json``
scratch snapshot.

Lifecycle propagation (PR 10)
-----------------------------
Hot-swaps and candidate mounts reach every worker through a
``deploy.json`` record in the scratch directory: whoever initiates the
change (the supervisor's :meth:`ServePool.publish_deploy`, or the one
worker whose admin endpoint took the request, via the
``service.pool_publish`` hook) verifies the artifact once and writes the
desired state with a bumped ``deploy_id``; every worker picks it up at
its next metrics-flush tick (within :data:`FLUSH_PERIOD_S`) and applies
it idempotently — re-forked workers catch up before marking ready.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.export import to_prometheus
from repro.serve.config import ServeConfig
from repro.serve.http import ModelServer, run_until_stopped
from repro.serve.metrics import record_worker_restart, worker_restarts_snapshot
from repro.serve.service import InferenceService

#: How long ServePool.start() waits for every worker's ready marker.
READY_TIMEOUT_S = 30.0
#: Supervisor monitor-thread poll period (child reaping + roster refresh).
MONITOR_POLL_S = 0.1
#: Worker metrics-snapshot flush period (also the deploy-record poll).
FLUSH_PERIOD_S = 0.5
#: First restart backoff; doubles per replacement up to the max below.
RESTART_BACKOFF_S = 0.5
RESTART_BACKOFF_MAX_S = 10.0
#: Replacements per pool lifetime — a crash-looping artifact must not
#: turn the supervisor into a fork bomb.
MAX_WORKER_RESTARTS = 16

_ROSTER_NAME = "pool.json"
_DEPLOY_NAME = "deploy.json"
_SUPERVISOR_METRICS_NAME = "metrics-supervisor.json"

#: publish_deploy sentinel: "leave the candidate slot untouched".
_UNSET: Any = object()


def _write_json_atomic(path: Path, payload: Any) -> None:
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def _read_json(path: Path) -> Optional[Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, different user
        return True
    return True


# ----------------------------------------------------------------------
# Worker-side hooks (run inside forked children)
# ----------------------------------------------------------------------
def _metrics_path(scratch: Path, pid: int) -> Path:
    return scratch / f"metrics-{pid}.json"


def _flush_metrics(scratch: Path) -> None:
    _write_json_atomic(_metrics_path(scratch, os.getpid()), REGISTRY.collect())


def _aggregate_metrics(scratch: Path) -> str:
    """Pool-wide Prometheus exposition: merge every worker's snapshot."""
    merged = MetricsRegistry()
    for path in sorted(scratch.glob("metrics-*.json")):
        snap = _read_json(path)
        if isinstance(snap, dict):
            merged.merge(snap)
    return to_prometheus(registry=merged)


def _pool_ready(scratch: Path) -> Tuple[bool, Any]:
    """Aggregated readiness: the roster says ok AND every sibling is alive."""
    roster = _read_json(scratch / _ROSTER_NAME)
    if not isinstance(roster, dict):
        return False, {"reason": "pool roster not written yet"}
    if roster.get("status") != "ok":
        return False, roster
    dead = [pid for pid in roster.get("workers", []) if not _pid_alive(pid)]
    if dead:
        # Faster than waiting for the supervisor's next reap cycle.
        return False, {"reason": "worker died", "dead": dead}
    return True, roster


# ----------------------------------------------------------------------
# Deploy-record plumbing (lifecycle fan-out across workers)
# ----------------------------------------------------------------------
def _publish_deploy_record(scratch: Path, record: Dict[str, Any]) -> int:
    """Write ``record`` to ``deploy.json`` with the next ``deploy_id``.

    The read-increment-write is not atomic across processes, but deploy
    semantics are last-write-wins desired state, so a lost increment in
    the (rare) race of two simultaneous publishers just coalesces the
    two publishes into one.
    """
    path = scratch / _DEPLOY_NAME
    existing = _read_json(path)
    last = existing.get("deploy_id", 0) if isinstance(existing, dict) else 0
    record = dict(record, deploy_id=int(last) + 1)
    _write_json_atomic(path, record)
    return record["deploy_id"]


def _apply_candidate(service: InferenceService, desired: Optional[dict]) -> None:
    """Converge the worker's candidate slot onto the deploy record's."""
    current = service.lifecycle_status()["candidate"]
    if desired is None:
        if current is not None:
            service.unmount_candidate(publish=False)
        return
    if (
        current is not None
        and current.get("artifact_sha") == desired.get("artifact_sha")
        and current.get("mode") == desired.get("mode")
        and current.get("fraction") == desired.get("fraction")
    ):
        return
    service.mount_candidate(
        desired["artifact"],
        mode=desired.get("mode"),
        fraction=desired.get("fraction"),
        verify=False,  # the publisher verified once, same trust domain
        publish=False,
    )


def _apply_deploy(scratch: Path, service: InferenceService, applied_id: int) -> int:
    """Apply any deploy record newer than ``applied_id``; returns its id.

    Idempotent: the worker that initiated (and already applied) a change
    sees its own record, finds the shas already match, and does nothing.
    A record that fails to apply is still marked applied — retrying a
    broken deploy every flush tick would melt the worker; the next
    *successful* publish supersedes it.
    """
    record = _read_json(scratch / _DEPLOY_NAME)
    if not isinstance(record, dict):
        return applied_id
    deploy_id = int(record.get("deploy_id", 0))
    if deploy_id <= applied_id:
        return applied_id
    try:
        artifact = record.get("artifact")
        if artifact is not None and record.get("artifact_sha") != service.artifact_sha:
            service.reload_artifact(artifact, verify=False, publish=False)
        if "candidate" in record:
            _apply_candidate(service, record["candidate"])
    except Exception:
        traceback.print_exc()
    return deploy_id


class ServePool:
    """Supervisor for a pre-fork pool of model-serving workers.

    Parameters
    ----------
    artifact:
        :mod:`repro.persist` artifact directory.  Verified once here;
        workers load it with ``verify=False`` (and read-only mmap when
        ``config.mmap`` is set).
    config:
        :class:`~repro.serve.config.ServeConfig`; ``config.workers``
        processes are forked.  ``port=0`` resolves to a concrete free
        port before forking, reported by :meth:`start` / ``address``.
    socket_strategy:
        ``"auto"`` (default) picks ``"reuseport"`` where the platform
        supports it, else ``"inherit"``; either name forces that
        strategy (tests exercise both).
    """

    def __init__(
        self,
        artifact: Any,
        config: Optional[ServeConfig] = None,
        *,
        socket_strategy: str = "auto",
    ) -> None:
        if socket_strategy not in ("auto", "reuseport", "inherit"):
            raise ValueError(
                f"socket_strategy must be auto|reuseport|inherit, "
                f"got {socket_strategy!r}"
            )
        self.artifact = str(artifact)
        self.config = config or ServeConfig()
        if socket_strategy == "auto":
            socket_strategy = (
                "reuseport" if hasattr(socket, "SO_REUSEPORT") else "inherit"
            )
        elif socket_strategy == "reuseport" and not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError("SO_REUSEPORT is not available on this platform")
        self.socket_strategy = socket_strategy
        # One lock guards all supervisor state shared with the monitor
        # thread (children roster, sockets, lifecycle flags).
        self._lock = threading.Lock()
        self._children: List[int] = []
        self._dead: Dict[int, int] = {}  # pid -> exit status
        self._started = False
        self._stopping = False
        self._ready = False  # restarts only begin after a clean boot
        self._scratch: Optional[Path] = None
        self._socket: Optional[socket.socket] = None  # placeholder or listener
        self._address: Optional[Tuple[str, int]] = None
        self._monitor_thread: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._resolved: Optional[ServeConfig] = None  # post-bind config
        self._restarts = 0
        self._restart_at = 0.0  # monotonic deadline for the next restart

    # -- address -------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        with self._lock:
            address = self._address
        if address is None:
            raise RuntimeError("pool is not started")
        return address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Verify the artifact, bind the shared address, fork the workers.

        Blocks until every worker reports ready (or raises after
        :data:`READY_TIMEOUT_S`, killing any stragglers).
        """
        from repro.persist import verify_artifact

        with self._lock:
            if self._started:
                raise RuntimeError("pool is already started (one-shot lifecycle)")
            self._started = True
        verify_artifact(self.artifact)  # once, streamed; workers skip it
        if self.config.candidate_artifact is not None:
            verify_artifact(self.config.candidate_artifact)
        scratch = Path(tempfile.mkdtemp(prefix="repro-serve-pool-"))
        shared = self._bind_shared_socket()
        host, port = shared.getsockname()[:2]
        resolved = dataclasses.replace(self.config, host=str(host), port=int(port))
        with self._lock:
            self._scratch = scratch
            self._socket = shared
            self._address = (str(host), int(port))
            self._resolved = resolved
        pids = [
            self._fork_worker(resolved, scratch, shared)
            for _ in range(self.config.workers)
        ]
        with self._lock:
            self._children = list(pids)
        thread = threading.Thread(
            target=self._monitor, name="repro-serve-pool-monitor", daemon=True
        )
        with self._lock:
            self._monitor_thread = thread
        thread.start()
        self._await_ready(scratch, pids)
        self._write_roster()
        with self._lock:
            self._ready = True
        return (str(host), int(port))

    def stop(self) -> None:
        """SIGTERM every worker, reap them, release sockets and scratch."""
        with self._lock:
            if not self._started or self._stopping:
                return
            self._stopping = True
            pids = list(self._children)
            shared = self._socket
            scratch = self._scratch
            thread = self._monitor_thread
        self._monitor_stop.set()
        if thread is not None:
            thread.join(timeout=5.0)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10.0
        for pid in pids:
            self._reap(pid, deadline)
        if shared is not None:
            shared.close()
        if scratch is not None:
            import shutil

            shutil.rmtree(scratch, ignore_errors=True)
        with self._lock:
            self._children = []
            self._socket = None

    def serve_forever(self) -> None:
        """Blocking variant for the CLI; Ctrl-C or SIGTERM stops cleanly.

        Starts the pool unless the caller already did (the CLI starts it
        first to print the bound address); see
        :func:`repro.serve.http.stop_on_sigterm` for the signal handling.
        """

        def start_once() -> None:
            with self._lock:
                started = self._started
            if not started:
                self.start()

        def running() -> bool:
            with self._lock:
                return not self._stopping

        run_until_stopped(start_once, running, self.stop)

    def __enter__(self) -> "ServePool":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- supervisor internals ------------------------------------------
    def _bind_shared_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if self.socket_strategy == "reuseport":
                # Placeholder: joins the SO_REUSEPORT group to pin the
                # address but never listens, so it receives no
                # connections — workers bind their own listening
                # sockets to the same (host, port).
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                sock.bind((self.config.host, self.config.port))
            else:
                # Fallback: one listening socket, inherited through fork.
                sock.bind((self.config.host, self.config.port))
                sock.listen(128)
        except OSError:
            sock.close()
            raise
        return sock

    def _fork_worker(
        self, config: ServeConfig, scratch: Path, shared: socket.socket
    ) -> int:
        supervisor = os.getpid()
        pid = os.fork()
        if pid:
            return pid
        # -- child ----------------------------------------------------
        try:
            if self.socket_strategy == "inherit":
                listen_socket: Optional[socket.socket] = shared
            else:
                # The placeholder is the supervisor's; keeping it open in
                # the child only leaks an fd per worker.
                shared.close()
                listen_socket = None
            _worker_main(self.artifact, config, scratch, listen_socket, supervisor)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)

    def _await_ready(self, scratch: Path, pids: List[int]) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        pending = set(pids)
        while pending:
            pending = {
                pid for pid in pending if not (scratch / f"ready-{pid}").exists()
            }
            if not pending:
                return
            with self._lock:
                died = [pid for pid in pending if pid in self._dead]
            if died or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"workers {sorted(died) or sorted(pending)} failed to "
                    f"become ready"
                )
            time.sleep(0.02)

    def _reap(self, pid: int, deadline: float) -> None:
        while True:
            try:
                done, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return
            if done:
                with self._lock:
                    self._dead[pid] = status
                return
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                deadline += 5.0
            time.sleep(0.02)

    def _monitor(self) -> None:
        """Reap dead children, restart them, keep the roster current."""
        while not self._monitor_stop.is_set():
            changed = False
            with self._lock:
                live = [pid for pid in self._children if pid not in self._dead]
            for pid in live:
                try:
                    done, status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done, status = pid, -1
                if done:
                    with self._lock:
                        self._dead[pid] = status
                    changed = True
            if changed:
                self._write_roster()
            self._maybe_restart()
            self._monitor_stop.wait(MONITOR_POLL_S)

    def _maybe_restart(self) -> None:
        """Replace one dead worker per backoff window.

        Only after a clean boot (``_ready``): a pool whose workers never
        came up should fail :meth:`start`, not crash-loop.  The backoff
        doubles per replacement (capped at :data:`RESTART_BACKOFF_MAX_S`)
        and :data:`MAX_WORKER_RESTARTS` bounds the pool's lifetime total.
        """
        with self._lock:
            if self._stopping or not self._ready or self._resolved is None:
                return
            dead = [pid for pid in self._children if pid in self._dead]
            if not dead or self._restarts >= MAX_WORKER_RESTARTS:
                return
            if time.monotonic() < self._restart_at:
                return
            pid = dead[0]
            resolved = self._resolved
            scratch = self._scratch
            shared = self._socket
            restarts = self._restarts
        if scratch is None or shared is None:
            return
        new_pid = self._fork_worker(resolved, scratch, shared)
        backoff = min(
            RESTART_BACKOFF_S * (2 ** min(restarts, 6)), RESTART_BACKOFF_MAX_S
        )
        with self._lock:
            self._children[self._children.index(pid)] = new_pid
            self._dead.pop(pid, None)
            self._restarts += 1
            self._restart_at = time.monotonic() + backoff
        record_worker_restart()
        self._flush_supervisor_metrics()
        self._write_roster()

    def _flush_supervisor_metrics(self) -> None:
        """Fold the supervisor's restart counter into the pool metrics.

        The supervisor has no flush loop of its own; its snapshot file
        rides the same ``metrics-*.json`` glob the workers' files do.
        """
        with self._lock:
            scratch = self._scratch
            if self._stopping or scratch is None:
                return
        snap = worker_restarts_snapshot()
        if snap:
            _write_json_atomic(scratch / _SUPERVISOR_METRICS_NAME, snap)

    def _write_roster(self) -> None:
        with self._lock:
            if self._stopping or self._scratch is None:
                return
            scratch = self._scratch
            children = list(self._children)
            dead = sorted(self._dead)
        roster = {
            "status": "ok" if not dead else "degraded",
            "workers": [pid for pid in children if pid not in dead],
            "dead": dead,
            "expected": len(children),
        }
        _write_json_atomic(scratch / _ROSTER_NAME, roster)

    # -- lifecycle fan-out ---------------------------------------------
    def publish_deploy(
        self,
        *,
        artifact: Optional[str] = None,
        candidate: Any = _UNSET,
        verify: bool = True,
    ) -> int:
        """Publish a desired lifecycle state every worker converges onto.

        ``artifact`` hot-swaps the primary; ``candidate`` is a
        ``{"artifact", "mode", "fraction"}`` dict to mount, ``None`` to
        unmount, or omitted to leave the slot untouched.  Artifacts are
        verified here **once**; workers apply with ``verify=False``.
        Returns the published ``deploy_id``.
        """
        from repro.persist import artifact_sha, verify_artifact

        with self._lock:
            scratch = self._scratch
            started = self._started and not self._stopping
        if scratch is None or not started:
            raise RuntimeError("pool is not started")
        record: Dict[str, Any] = {}
        if artifact is not None:
            if verify:
                verify_artifact(artifact)
            record["artifact"] = str(artifact)
            record["artifact_sha"] = artifact_sha(artifact)
        if candidate is not _UNSET:
            if candidate is None:
                record["candidate"] = None
            else:
                desired = dict(candidate)
                if "artifact" not in desired:
                    raise ValueError('candidate needs an "artifact" path')
                if verify:
                    verify_artifact(desired["artifact"])
                desired.setdefault(
                    "artifact_sha", artifact_sha(desired["artifact"])
                )
                record["candidate"] = desired
        return _publish_deploy_record(scratch, record)

    # -- introspection -------------------------------------------------
    def worker_pids(self) -> List[int]:
        with self._lock:
            return [pid for pid in self._children if pid not in self._dead]

    def restart_count(self) -> int:
        """Workers replaced since start (see ``serve.worker_restarts``)."""
        with self._lock:
            return self._restarts


def _worker_main(
    artifact: str,
    config: ServeConfig,
    scratch: Path,
    listen_socket: Optional[socket.socket],
    supervisor: int,
) -> None:
    """Body of one forked worker; never returns (``os._exit`` on exit).

    Loads the artifact read-only (no re-verification — the supervisor
    already streamed the checksums), serves it over the shared address,
    and periodically snapshots its metrics into the scratch directory.
    Exits on SIGTERM, or on the first flush tick after its parent is no
    longer ``supervisor`` (a SIGKILLed supervisor cannot stop it).
    """
    # First thing: the handler inherited through fork sets the
    # supervisor's shutdown event, which this process never reads.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # Fresh metrics: anything inherited through fork would be merged
    # once per worker and over-count in the pool-wide aggregation.
    REGISTRY.reset()
    # Ctrl-C goes to the whole process group; the supervisor turns it
    # into SIGTERM per worker, so workers ignore the raw SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = InferenceService.from_artifact(artifact, config, verify=False)
    if config.candidate_artifact is not None:
        # The supervisor verified the configured candidate before forking.
        service.mount_candidate(
            config.candidate_artifact, verify=False, publish=False
        )

    def pool_metrics() -> str:
        _flush_metrics(scratch)  # our own counts first, then everyone's
        return _aggregate_metrics(scratch)

    def pool_publish(
        *, artifact: Optional[str], artifact_sha: Optional[str], candidate: Any
    ) -> None:
        # An admin request lands on whichever worker the kernel picked;
        # that worker has already applied the change locally and here
        # publishes its (fully known) state for the siblings.
        record: Dict[str, Any] = {"candidate": candidate}
        if artifact is not None:
            record["artifact"] = artifact
            record["artifact_sha"] = artifact_sha
        _publish_deploy_record(scratch, record)

    service.pool_ready = lambda: _pool_ready(scratch)
    service.pool_metrics = pool_metrics
    service.pool_publish = pool_publish
    server = ModelServer(
        service,
        config,
        reuse_port=listen_socket is None,
        listen_socket=listen_socket,
    )
    server.start()
    # Catch up on any deploy published before this worker existed (a
    # restarted worker boots from the original artifact path).
    applied = _apply_deploy(scratch, service, 0)
    _flush_metrics(scratch)
    (scratch / f"ready-{os.getpid()}").touch()
    while not stop.wait(FLUSH_PERIOD_S) and os.getppid() == supervisor:
        _flush_metrics(scratch)
        applied = _apply_deploy(scratch, service, applied)
    server.stop()
    _flush_metrics(scratch)
    sys.stderr.flush()


__all__ = ["ServePool"]
