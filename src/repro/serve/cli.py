"""Command-line entry point: ``repro-serve`` / ``python -m repro.serve``.

Loads a :mod:`repro.persist` artifact directory and serves it over HTTP::

    repro-serve --artifact runs/pima-hamming --port 8100
    repro-serve --artifact runs/pima-hamming --workers 4 --mmap

With ``--workers > 1`` the pre-fork pool (:mod:`repro.serve.pool`)
serves the artifact: N processes share one ``SO_REUSEPORT`` address and
— with ``--mmap`` — one set of physical payload pages.  The pool knobs
also resolve from the environment (``REPRO_SERVE_WORKERS``,
``REPRO_SERVE_MMAP``); explicit flags win.

Lifecycle flags (PR 10): ``--watch-artifact`` polls the served artifact
directory and hot-swaps in place when its manifest sha changes;
``--candidate-artifact`` mounts a second model for shadow or A/B
(``--candidate-mode``, ``--ab-fraction``) evaluation; ``--drift-threshold``
/ ``--drift-window`` tune the HDC traffic-vs-training drift monitor.
Everything is also reachable at runtime through ``POST /v1/admin/*``.

Exit codes: 0 = clean shutdown (Ctrl-C), 2 = bad arguments or an
unloadable artifact.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.persist import ArtifactError, artifact_info
from repro.serve.config import ServeConfig, resolve_serve_config
from repro.serve.http import ModelServer, stop_on_sigterm
from repro.serve.pool import ServePool


def build_parser() -> argparse.ArgumentParser:
    defaults = ServeConfig()
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve a saved model artifact over HTTP with micro-batched "
            "inference (endpoints: POST /v1/predict, GET /healthz, "
            "/readyz, /metrics)."
        ),
    )
    parser.add_argument(
        "--artifact", required=True, metavar="DIR",
        help="artifact directory written by repro.persist.save_artifact",
    )
    parser.add_argument("--host", default=defaults.host, help="bind address")
    parser.add_argument(
        "--port", type=int, default=defaults.port,
        help="bind port (0 picks a free port)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=defaults.max_batch, metavar="ROWS",
        help="max rows fused into one model call",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=defaults.max_wait_ms, metavar="MS",
        help="batching window after the first queued request",
    )
    parser.add_argument(
        "--queue-size", type=int, default=defaults.queue_size, metavar="N",
        help="pending-request bound before 429 rejections",
    )
    parser.add_argument(
        "--max-rows-per-request", type=int,
        default=defaults.max_rows_per_request, metavar="N",
        help="per-request row cap before 413 rejections",
    )
    parser.add_argument(
        "--log-requests", action="store_true",
        help="log one line per HTTP request to stderr",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=(
            "worker processes (pre-fork pool when > 1); default 1, "
            "env REPRO_SERVE_WORKERS"
        ),
    )
    parser.add_argument(
        "--mmap", action="store_true", default=None,
        help=(
            "load artifact payloads as shared read-only memory maps; "
            "env REPRO_SERVE_MMAP"
        ),
    )
    parser.add_argument(
        "--watch-artifact", action="store_true",
        help="poll the artifact directory and hot-swap when its sha changes",
    )
    parser.add_argument(
        "--watch-interval", type=float, default=defaults.watch_interval_s,
        metavar="S", help="artifact watch poll period in seconds",
    )
    parser.add_argument(
        "--candidate-artifact", default=None, metavar="DIR",
        help="artifact to mount as the shadow/A-B candidate at startup",
    )
    parser.add_argument(
        "--candidate-mode", choices=("shadow", "ab"),
        default=defaults.candidate_mode,
        help="candidate routing: mirrored shadow traffic or a live A/B split",
    )
    parser.add_argument(
        "--ab-fraction", type=float, default=defaults.ab_fraction,
        metavar="F", help="fraction of live requests A/B-routed to the candidate",
    )
    parser.add_argument(
        "--drift-threshold", type=float, default=defaults.drift_threshold,
        metavar="D",
        help="normalised Hamming distance beyond which drift is flagged",
    )
    parser.add_argument(
        "--drift-window", type=int, default=defaults.drift_window,
        metavar="ROWS", help="soft row window for the traffic drift centroid",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_serve_config(
            workers=args.workers,
            mmap=args.mmap,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            queue_size=args.queue_size,
            max_rows_per_request=args.max_rows_per_request,
            log_requests=args.log_requests,
            watch_artifact=args.watch_artifact,
            watch_interval_s=args.watch_interval,
            candidate_artifact=args.candidate_artifact,
            candidate_mode=args.candidate_mode,
            ab_fraction=args.ab_fraction,
            drift_threshold=args.drift_threshold,
            drift_window=args.drift_window,
        )
    except ValueError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2
    try:
        info = artifact_info(args.artifact)
    except ArtifactError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2
    # SIGTERM is handled from here on: one landing while the server boots
    # or right after the banner stops it cleanly (workers reaped).
    with stop_on_sigterm():
        return _serve(args, config, info)


def _serve(args: argparse.Namespace, config: ServeConfig, info: dict) -> int:
    if config.workers > 1:
        try:
            pool = ServePool(args.artifact, config)
            host, port = pool.start()
        except (ArtifactError, RuntimeError, OSError) as exc:
            print(f"repro-serve: error: {exc}", file=sys.stderr)
            return 2
        print(
            f"repro-serve: serving {info['kind']} "
            f"(schema v{info['schema_version']}, repro {info['repro_version']}) "
            f"on http://{host}:{port} "
            f"[{config.workers} workers{', mmap' if config.mmap else ''}]",
            flush=True,
        )
        watcher = _start_watcher(config, args.artifact, pool=pool)
        try:
            pool.serve_forever()
        finally:
            if watcher is not None:
                watcher.stop()
            pool.stop()
        return 0
    try:
        server = ModelServer.from_artifact(args.artifact, config)
        if config.candidate_artifact is not None:
            server.service.mount_candidate(config.candidate_artifact)
    except (ArtifactError, RuntimeError) as exc:  # ReloadError is a RuntimeError
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2
    host, port = server.start()
    print(
        f"repro-serve: serving {info['kind']} "
        f"(schema v{info['schema_version']}, repro {info['repro_version']}) "
        f"on http://{host}:{port}",
        flush=True,
    )
    watcher = _start_watcher(config, args.artifact, server=server)
    try:
        server.serve_forever()
    finally:
        if watcher is not None:
            watcher.stop()
        server.stop()
    return 0


def _start_watcher(config, artifact: str, *, server=None, pool=None):
    """Wire ``--watch-artifact`` to the right reload path, if enabled.

    A single server reloads in place; a pool verifies once in the
    supervisor and publishes a deploy record every worker applies.
    """
    if not config.watch_artifact:
        return None
    from repro.lifecycle import ArtifactWatcher
    from repro.persist import artifact_sha

    if pool is not None:
        on_change = lambda path: pool.publish_deploy(artifact=path)  # noqa: E731
    else:
        on_change = lambda path: server.service.reload_artifact(path)  # noqa: E731
    watcher = ArtifactWatcher(
        artifact,
        on_change,
        interval_s=config.watch_interval_s,
        initial_sha=artifact_sha(artifact),
    )
    watcher.start()
    print(
        f"repro-serve: watching {artifact} every {config.watch_interval_s}s "
        f"for hot-swap",
        flush=True,
    )
    return watcher


if __name__ == "__main__":
    raise SystemExit(main())
