"""Serve an artifact as ``python -m repro.serve`` does, recording layer spans.

Usage::

    PYTHONPATH=src python perfbench/traced_server.py --artifact DIR --spans OUT.json

Builds the same single-process :class:`~repro.serve.ModelServer` from the
same artifact (port chosen by the OS, every other setting at its
default), then wraps the layer entry points on the loaded instances:

* ``InferenceService.predict_with_info`` — one span per request, keyed by
  the client's ``X-Request-Id`` header;
* ``MicroBatcher.submit`` — the submit time, which becomes a
  ``serve.batcher.queue_wait`` span ending when the request's flush starts;
* the served pipeline's ``predict`` (one span per flush, listing the
  requests it serves), and inside it ``RecordEncoder.transform``, the
  drift monitor's ``observe`` hook and ``estimator_.predict``;
* ``repro.persist.load_artifact`` while the server loads.

Spans stay in memory; SIGTERM stops the server and the spans are written
to ``--spans`` on the way out.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SpanRecorder  # noqa: E402


def instrument(server, rec: SpanRecorder) -> None:
    """Wrap the layer entry points of a built (not yet started) server."""
    from http.server import BaseHTTPRequestHandler

    local = threading.local()
    parse_request = BaseHTTPRequestHandler.parse_request

    def traced_parse_request(handler) -> bool:
        ok = parse_request(handler)
        local.request_id = handler.headers.get("X-Request-Id") if ok else None
        return ok

    BaseHTTPRequestHandler.parse_request = traced_parse_request

    service = server.service
    predict_with_info = service.predict_with_info

    def traced_predict_with_info(rows):
        rid = getattr(local, "request_id", None)
        parent = f"http:{rid}" if rid is not None else None
        with rec.span("serve.service.predict_with_info", parent=parent, request_id=rid):
            return predict_with_info(rows)

    service.predict_with_info = traced_predict_with_info

    # The batcher flushes requests in submission order, so a flush of n
    # rows serves the oldest submitted requests whose rows add up to n.
    # The lock keeps this log in the batcher queue's order.
    lock = threading.Lock()
    submitted: collections.deque = collections.deque()
    batcher = service._batcher
    submit = batcher.submit

    def traced_submit(rows):
        t = time.perf_counter()
        with lock:
            pending = submit(rows)
            submitted.append((pending.n, t, getattr(local, "request_id", None), rec.current()))
        return pending

    batcher.submit = traced_submit

    model = service.model
    model_predict = model.predict

    def traced_model_predict(X):
        start = time.perf_counter()
        taken: List[tuple] = []
        with lock:
            rows = 0
            while submitted and rows < X.shape[0]:
                taken.append(submitted.popleft())
                rows += taken[-1][0]
        flush_id = rec.new_id()
        for _, t_submit, rid, service_span in taken:
            rec.record(
                "serve.batcher.queue_wait", t_submit, start,
                parent=service_span, request_id=rid, flush=flush_id,
            )
        with rec.span(
            "ml.pipeline.predict", span_id=flush_id, rows=int(X.shape[0]),
            requests=[t[2] for t in taken],
        ):
            return model_predict(X)

    model.predict = traced_model_predict
    encoder = model.encoder_
    encoder.transform = rec.wrap(
        encoder.transform, "core.records.transform",
        attrs=lambda X, *a: {"rows": int(len(X))},
    )
    model.estimator_.predict = rec.wrap(model.estimator_.predict, "core.classifier.predict")
    if model.feature_hook is not None:
        model.feature_hook = rec.wrap(model.feature_hook, "lifecycle.drift.observe")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--spans", required=True, help="where to write the spans at exit")
    args = parser.parse_args(argv)

    rec = SpanRecorder(prefix=f"srv{os.getpid()}.")
    import repro.persist

    # InferenceService.from_artifact imports load_artifact at call time.
    repro.persist.load_artifact = rec.wrap(repro.persist.load_artifact, "persist.load_artifact")
    from repro.serve import ModelServer, ServeConfig

    server = ModelServer.from_artifact(args.artifact, ServeConfig(port=0))
    instrument(server, rec)
    host, port = server.start()
    print(f"perfbench traced server on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        rec.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
