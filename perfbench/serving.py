"""Serving workloads: the real server as a child process, driven over HTTP.

The server is ``python -m repro.serve --artifact DIR --port 0`` (or, for
the traced run, ``traced_server.py`` on the same artifact).  The client is
this module's own ``http.client`` keep-alive client: each of the
:data:`CLIENTS` closed-loop clients opens one connection before timing
starts and sends its next request only after the previous reply.

Expected labels come from the repo's oracles (``transform_reference``,
then ``topk_hamming_reference(k=1)`` against the model's store) and are
computed before timing; every response is checked against them after
the timed loop, so checking never delays a request.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import harness
import tracing
from harness import DIM, HERE, ROOT, WORK, Outcome, Result


@dataclass(frozen=True)
class ServeWorkload:
    rows_per_request: int
    estimator: str  # "hamming" (1-NN over the training store) or "prototype"


WORKLOADS = {
    # HTTP edge dominates: ~1 ms of model work per request.
    "serve_row": ServeWorkload(rows_per_request=1, estimator="hamming"),
    # Encoding and drift accumulation dominate; HTTP is small per row.
    "serve_batch": ServeWorkload(rows_per_request=512, estimator="prototype"),
}

CLIENTS = 2
#: Server spawns per run; ``setup_s`` is their median spawn-to-ready time.
SETUP_SPAWNS = 5
WARMUP_REQUESTS = 3
REQUEST_TIMEOUT_S = 20.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
#: Stride between the request windows over the row pool (coprime to the
#: pool size, so consecutive requests carry different rows).
WINDOW_STRIDE = 37
BATCH_JOBS = 96
#: The traced run alternates untraced and traced servers this many times,
#: so a slow spell of the machine hits both sides of the overhead alike.
TRACE_ROUNDS = 2

_ADDRESS = re.compile(rb"on http://([0-9.]+):([0-9]+)")


# ----------------------------------------------------------------------
# Model, artifact, expected outputs
# ----------------------------------------------------------------------
def build_artifact(workload: ServeWorkload, path: Path):
    """Fit the workload's pipeline on Pima R and save it with the drift
    monitor's training centroid; returns ``(artifact_sha, loaded_model)``."""
    from repro.api import (
        ExperimentConfig,
        HammingClassifier,
        HDCFeaturePipeline,
        PrototypeClassifier,
        RecordEncoder,
        artifact_sha,
        default_datasets,
        load_artifact,
        save_artifact,
        training_centroid,
    )
    from repro.utils.rng import derive_seed

    config = ExperimentConfig.paper()
    ds = default_datasets(config)["pima_r"]
    encoder = RecordEncoder(
        specs=ds.specs, dim=DIM, seed=derive_seed(config.seed, "encode", ds.name)
    )
    estimator = (
        HammingClassifier(dim=DIM)
        if workload.estimator == "hamming"
        else PrototypeClassifier(dim=DIM)
    )
    pipe = HDCFeaturePipeline(encoder, estimator).fit(ds.X, ds.y)
    save_artifact(
        pipe,
        path,
        extras={"train_centroid": training_centroid(pipe.encoder_, ds.X)},
    )
    return artifact_sha(path), load_artifact(path)


def store_of(model):
    """The packed rows a query is compared against."""
    est = model.estimator_
    return est.X_train_ if hasattr(est, "X_train_") else est.prototypes_


def expected_labels(model, rows) -> List[int]:
    """Oracle labels: reference encoding, dense 1-NN, lowest index on ties."""
    from repro.api import topk_hamming_reference

    est = model.estimator_
    packed = model.encoder_.transform_reference(rows)
    _, idx = topk_hamming_reference(packed, store_of(model), 1)
    idx = idx[:, 0]
    if hasattr(est, "y_train_"):
        idx = est.y_train_[idx]
    return est.classes_[idx].tolist()


@dataclass(frozen=True)
class Job:
    """One prepared request body (split around its request id)."""

    prefix: bytes
    suffix: bytes
    expected: Tuple[int, ...]

    @property
    def rows(self) -> int:
        return len(self.expected)

    def body(self, request_id: str) -> bytes:
        return self.prefix + request_id.encode("ascii") + self.suffix


def make_jobs(pool, labels: Sequence[int], rows_per_request: int) -> List[Job]:
    n = pool.shape[0]
    count = n if rows_per_request == 1 else BATCH_JOBS
    jobs = []
    for j in range(count):
        idx = [(j * WINDOW_STRIDE + k) % n for k in range(rows_per_request)]
        text = json.dumps({"request_id": "\0", "rows": pool[idx].tolist()})
        prefix, suffix = text.encode("utf-8").split(b"\\u0000")
        jobs.append(Job(prefix, suffix, tuple(labels[i] for i in idx)))
    return jobs


def check_response(
    status: Optional[int],
    body: bytes,
    request_id: str,
    expected: Sequence[int],
    sha: str,
) -> Optional[str]:
    """None when the response is right, else why it is wrong."""
    if status != 200:
        return f"HTTP {status}: {body[:200]!r}"
    try:
        payload = json.loads(body)
    except ValueError:
        return f"response is not JSON: {body[:200]!r}"
    if not isinstance(payload, dict):
        return f"response is not a JSON object: {body[:200]!r}"
    if payload.get("n") != len(expected):
        return f"n={payload.get('n')!r}, sent {len(expected)} rows"
    predictions = payload.get("predictions")
    if predictions != list(expected):
        if not isinstance(predictions, list) or len(predictions) != len(expected):
            return "predictions missing or of the wrong length"
        i = next(k for k, (a, b) in enumerate(zip(predictions, expected)) if a != b)
        return f"row {i}: predicted {predictions[i]!r}, expected {expected[i]!r}"
    served = (payload.get("model") or {}).get("artifact_sha")
    if served != sha:
        return f"artifact_sha {served!r}, expected {sha!r}"
    if payload.get("request_id") != request_id:
        return f"request_id {payload.get('request_id')!r}, sent {request_id!r}"
    return None


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    """Ask Linux to SIGTERM the server if the benchmark itself dies."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def _get(host: str, port: int, path: str, timeout: float) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class ServerProcess:
    """One server child process; stopped with SIGTERM on every exit path."""

    def __init__(self, argv: Sequence[str], log_path: Path) -> None:
        self.argv = list(argv)
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the first 200 on ``/readyz``; returns the
        seconds from spawn to ready."""
        with open(self.log_path, "wb") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=str(ROOT),
                preexec_fn=_die_with_parent if sys.platform.startswith("linux") else None,
            )
        print(f"server pid {self.proc.pid}", flush=True)
        deadline = t0 + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: {self.log_tail()}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server not ready in {READY_TIMEOUT_S}s: {self.log_tail()}")
            if not self.port:
                match = _ADDRESS.search(self.log_path.read_bytes())
                if match:
                    self.host, self.port = match.group(1).decode(), int(match.group(2))
            if self.port:
                try:
                    status, _ = _get(self.host, self.port, "/readyz", 1.0)
                except OSError:
                    status = None
                if status == 200:
                    return time.perf_counter() - t0
            time.sleep(0.005)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_bytes()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def describe(self) -> dict:
        status, body = _get(self.host, self.port, "/readyz", REQUEST_TIMEOUT_S)
        if status != 200:
            raise RuntimeError(f"/readyz answered {status}")
        return json.loads(body)

    def counters(self) -> Dict[str, float]:
        """The ``serve.*`` counters from ``/metrics``."""
        status, body = _get(self.host, self.port, "/metrics", REQUEST_TIMEOUT_S)
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        out: Dict[str, float] = {}
        for line in body.decode("utf-8").splitlines():
            if line.startswith("repro_serve_") and line.split(" ", 1)[0].endswith("_total"):
                name, value = line.rsplit(" ", 1)
                out[name] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Keep-alive client and the closed loop
# ----------------------------------------------------------------------
class KeepAliveClient:
    """One persistent HTTP/1.1 connection, reopened only after an error."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None
        self.connections = 0
        self.requests = 0

    def post(self, body: bytes, request_id: str) -> Tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
            self.conn.connect()
            self.connections += 1
        self.requests += 1
        try:
            self.conn.request(
                "POST",
                "/v1/predict",
                body=body,
                headers={"Content-Type": "application/json", "X-Request-Id": request_id},
            )
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if resp.will_close:
            self.close()
        return resp.status, data

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class Call:
    request_id: str
    job: Job
    start: float
    end: float
    status: Optional[int]
    body: bytes
    error: Optional[str]


def _call(client: KeepAliveClient, job: Job, request_id: str) -> Call:
    start = time.perf_counter()
    try:
        status, body = client.post(job.body(request_id), request_id)
        error = None
    except (OSError, http.client.HTTPException) as exc:
        status, body, error = None, b"", f"transport error: {exc!r}"
    return Call(request_id, job, start, time.perf_counter(), status, body, error)


def check_calls(calls: Sequence[Call], sha: str, outcome: Outcome) -> None:
    for call in calls:
        call.error = call.error or check_response(
            call.status, call.body, call.request_id, call.job.expected, sha
        )
        outcome.add(call.end - call.start, call.job.rows, call.error)


@dataclass
class Phase:
    """One or more measured closed loops: calls, ``/metrics`` counter deltas,
    connections opened and requests sent on them."""

    outcome: Outcome = field(default_factory=Outcome)
    calls: List[Call] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    connections: int = 0
    requests: int = 0
    peak_rss_mb: float = 0.0

    def merge(self, other: "Phase") -> None:
        self.outcome.merge(other.outcome)
        self.calls.extend(other.calls)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        self.connections += other.connections
        self.requests += other.requests
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)


def drive(
    server: ServerProcess, jobs: Sequence[Job], sha: str, seconds: float, tag: str = ""
) -> Phase:
    """Warm up, then run the closed loop for ``seconds`` and check it.

    Request ids start with ``tag``, so phases of one run never share one."""
    clients = [KeepAliveClient(server.host, server.port) for _ in range(CLIENTS)]
    shares = [list(jobs[c::CLIENTS]) for c in range(CLIENTS)]
    outcome = Outcome()
    try:
        for i in range(WARMUP_REQUESTS):
            for c, client in enumerate(clients):
                call = _call(client, shares[c][i % len(shares[c])], f"{tag}w{c}-{i}")
                error = call.error or check_response(
                    call.status, call.body, call.request_id, call.job.expected, sha
                )
                if error is not None:  # a warm-up only counts when it fails
                    outcome.add(0.0, 0, f"warm-up: {error}")
        before = server.counters()
        per_client: List[List[Call]] = [[] for _ in clients]
        t0 = time.perf_counter() + 0.05
        deadline = t0 + seconds
        threads = [
            threading.Thread(
                target=_loop,
                args=(client, shares[c], f"{tag}c{c}", t0, deadline, per_client[c]),
                name=f"perfbench-client-{c}",
                daemon=True,
            )
            for c, client in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 2 * REQUEST_TIMEOUT_S + 10)
            if t.is_alive():
                raise RuntimeError(f"{t.name} did not finish")
        calls = sorted((c for cs in per_client for c in cs), key=lambda c: c.start)
        if not calls:
            raise RuntimeError("no request was sent")
        outcome.wall_s = max(c.end for c in calls) - t0
        after = server.counters()
        rss = server.peak_rss_mb()
    finally:
        for client in clients:
            client.close()
    check_calls(calls, sha, outcome)
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in set(after) | set(before)}
    return Phase(
        outcome,
        calls,
        delta,
        connections=sum(c.connections for c in clients),
        requests=sum(c.requests for c in clients),
        peak_rss_mb=rss,
    )


def _loop(client, jobs, prefix, t0, deadline, out) -> None:
    time.sleep(max(0.0, t0 - time.perf_counter()))
    i = 0
    while time.perf_counter() < deadline:
        out.append(_call(client, jobs[i % len(jobs)], f"{prefix}-{i}"))
        i += 1


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _server_argv(artifact: Path, spans: Optional[Path] = None) -> List[str]:
    if spans is None:
        return [sys.executable, "-m", "repro.serve", "--artifact", str(artifact), "--port", "0"]
    return [
        sys.executable, str(HERE / "traced_server.py"),
        "--artifact", str(artifact), "--spans", str(spans),
    ]


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    from repro.api import generate_pima

    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        t = time.perf_counter()
        pool = generate_pima(seed=seed, inject_missing=False).X
        generate_s = time.perf_counter() - t
        artifact = tmp / "artifact"
        sha, model = build_artifact(workload, artifact)
        labels = expected_labels(model, pool)
        jobs = make_jobs(pool, labels, workload.rows_per_request)
        if not trace:
            return _run_untraced(artifact, sha, jobs, seconds, tmp)
        values, outcome, spans = _run_traced(
            artifact, sha, jobs, seconds, tmp, store_of(model).shape[0]
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    values["data.generate_s"] = generate_s
    harness.write_trace(name, seed, spans)
    notes = [f"failure: {r}" for r in outcome.reasons]
    notes.append(
        "core.search.distance_pairs and core.search.bytes_scanned are computed "
        "from tensor sizes (query rows x stored rows x 8-byte words), not counted"
    )
    return Result(harness.layer_metrics(values), notes, outcome.attempted, outcome.failed)


def _run_untraced(artifact, sha, jobs, seconds, tmp) -> Result:
    setups = []
    for k in range(SETUP_SPAWNS - 1):
        with ServerProcess(_server_argv(artifact), tmp / f"setup{k}.log") as server:
            setups.append(server.start())
    with ServerProcess(_server_argv(artifact), tmp / "server.log") as server:
        setups.append(server.start())
        print(f"server kernel_backend {server.describe()['kernel_backend']}", flush=True)
        phase = drive(server, jobs, sha, seconds)
    metrics, notes = harness.end_to_end_metrics(
        phase.outcome, setup_s=statistics.median(setups), peak_rss_mb=phase.peak_rss_mb
    )
    notes.append(f"setup_s is the median of {SETUP_SPAWNS} spawn-to-ready times: {setups}")
    notes.extend(f"failure: {r}" for r in phase.outcome.reasons)
    return Result(metrics, notes, phase.outcome.attempted, phase.outcome.failed)


def _run_traced(artifact, sha, jobs, seconds, tmp, store_rows):
    """Alternate untraced and traced servers; returns the layer values,
    the outcome of every request and the spans (client and server)."""
    share = seconds / (2 * TRACE_ROUNDS)
    plain, traced, spans = Phase(), Phase(), []
    for k in range(TRACE_ROUNDS):
        with ServerProcess(_server_argv(artifact), tmp / f"plain{k}.log") as server:
            server.start()
            plain.merge(drive(server, jobs, sha, share, tag=f"p{k}"))
        spans_path = tmp / f"spans{k}.json"
        with ServerProcess(_server_argv(artifact, spans_path), tmp / f"traced{k}.log") as server:
            server.start()
            traced.merge(drive(server, jobs, sha, share, tag=f"t{k}"))
        # The launcher writes its spans when SIGTERM stops it.
        spans += json.loads(spans_path.read_text(encoding="utf-8"))
    client_spans = [
        {
            "id": f"http:{c.request_id}",
            "name": "serve.http.request",
            "start": c.start,
            "end": c.end,
            "parent": None,
            "request_id": c.request_id,
            "ok": c.error is None,
        }
        for c in traced.calls
    ]
    values = serving_layers(traced, spans, store_rows)
    values["trace.overhead_pct"] = harness.overhead_pct(
        plain.outcome.completed / plain.outcome.wall_s,
        traced.outcome.completed / traced.outcome.wall_s,
    )
    outcome = plain.outcome
    outcome.merge(traced.outcome)
    return values, outcome, client_spans + spans


def serving_layers(phase: Phase, spans: List[dict], store_rows: int) -> Dict[str, float]:
    """Per-request layer metrics from the client calls and server spans."""
    ok = [c for c in phase.calls if c.error is None]
    if not ok:
        raise RuntimeError("no successful traced request")
    n = float(len(ok))
    rids = {c.request_id for c in ok}
    by_name: Dict[str, List[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    kids = tracing.children_index(spans)
    service = {
        s["request_id"]: s
        for s in by_name.get("serve.service.predict_with_info", [])
        if s["request_id"] in rids
    }
    waits = [s for s in by_name.get("serve.batcher.queue_wait", []) if s["request_id"] in rids]
    flushes = {s["id"]: s for s in by_name.get("ml.pipeline.predict", [])}
    timed_flushes = [f for f in flushes.values() if rids.intersection(f["requests"])]
    timed_ids = {f["id"] for f in timed_flushes}

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def flush_children(name: str) -> List[dict]:
        return [s for s in by_name.get(name, []) if s["parent"] in timed_ids]

    missing = rids - set(service)
    if missing:
        raise RuntimeError(f"{len(missing)} traced requests have no service span")
    http_self = sum((c.end - c.start) - dur(service[c.request_id]) for c in ok)
    service_self = 0.0
    for s in service.values():
        children = list(kids.get(s["id"], []))
        children += [flushes[w["flush"]] for w in children if w.get("flush") in flushes]
        service_self += tracing.self_time(s, children)
    transforms = flush_children("core.records.transform")
    rows_per_request = ok[0].job.rows
    words = (DIM + 63) // 64
    pairs = rows_per_request * store_rows
    loads = by_name.get("persist.load_artifact", [])
    batches = phase.counters.get("repro_serve_batches_total", 0.0)
    return {
        "serve.http.self_ms": 1e3 * http_self / n,
        "serve.http.requests_per_connection": phase.requests / max(phase.connections, 1),
        "serve.service.self_ms": 1e3 * service_self / n,
        "serve.batcher.queue_wait_ms": 1e3 * sum(dur(w) for w in waits) / n,
        "serve.batcher.rows_per_flush": (
            phase.counters.get("repro_serve_rows_total", 0.0) / batches if batches else 0.0
        ),
        "serve.rejected": phase.counters.get("repro_serve_rejected_total", 0.0),
        "serve.errors": phase.counters.get("repro_serve_errors_total", 0.0),
        "ml.pipeline.self_ms": 1e3
        * sum(tracing.self_time(f, kids.get(f["id"], [])) for f in timed_flushes)
        / n,
        "core.records.transform_ms": 1e3 * sum(dur(s) for s in transforms) / n,
        "core.records.rows_per_call": (
            sum(s["rows"] for s in transforms) / len(transforms) if transforms else 0.0
        ),
        "core.classifier.predict_ms": 1e3
        * sum(dur(s) for s in flush_children("core.classifier.predict"))
        / n,
        "lifecycle.drift.observe_ms": 1e3
        * sum(dur(s) for s in flush_children("lifecycle.drift.observe"))
        / n,
        "core.search.distance_pairs": float(pairs),
        "core.search.bytes_scanned": float(pairs * words * 8),
        "persist.load_artifact_s": sum(dur(s) for s in loads) / max(len(loads), 1),
    }


__all__ = ["WORKLOADS", "run"]
