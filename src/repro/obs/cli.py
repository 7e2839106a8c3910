"""Command-line entry point: ``repro-obs`` / ``python -m repro.obs``.

Wraps any benchmark/example script with tracing armed::

    repro-obs --json trace.json --prom metrics.prom examples/pima_pipeline.py

The target script runs in-process (``runpy``) under a root span named
``repro-obs``, with ``REPRO_OBS=1`` exported so process-pool workers
(either start method) arm themselves too.  The script's top-level
imports are traced as ``script.import`` spans (one per outermost
uncached import), so dependency import time is attributed rather than
appearing as an unexplained coverage gap.  After the script finishes —
including via ``SystemExit`` — the collected spans and metrics are
written as JSON and/or Prometheus text (``-`` = stdout), a one-line
coverage summary is printed, and ``--min-coverage`` turns the summary
into a CI gate.
"""

from __future__ import annotations

import argparse
import builtins
import os
import runpy
import sys
from types import ModuleType
from typing import Any, Mapping, Optional, Sequence

from repro import obs
from repro.obs import export


class _ImportSpans:
    """Trace the script's top-level module imports as ``script.import`` spans.

    A wrapped script spends real wall-clock importing its dependencies
    (numpy, scipy, the repro subpackages) before any instrumented hot
    path runs; without accounting, that time is unattributed root-span
    wall-clock and the coverage gate blames the instrumentation.  The
    hook wraps ``builtins.__import__`` while the script runs: only
    outermost, not-yet-cached imports open a span — nested imports are
    billed to their importer's span — so each heavyweight dependency
    shows up once, as a direct child of the root.
    """

    def __init__(self) -> None:
        self._depth = 0
        self._original = builtins.__import__

    def __enter__(self) -> "_ImportSpans":
        builtins.__import__ = self._traced
        return self

    def __exit__(self, *exc: object) -> None:
        builtins.__import__ = self._original

    def _traced(
        self,
        name: str,
        globals: Optional[Mapping[str, Any]] = None,
        locals: Optional[Mapping[str, Any]] = None,
        fromlist: Sequence[str] = (),
        level: int = 0,
    ) -> ModuleType:
        if self._depth or name in sys.modules:
            return self._original(name, globals, locals, fromlist, level)
        self._depth += 1
        try:
            with obs.span("script.import", module=name):
                return self._original(name, globals, locals, fromlist, level)
        finally:
            self._depth -= 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Run a Python script with repro.obs tracing armed and export "
            "the collected spans/metrics (JSON and/or Prometheus text)."
        ),
    )
    parser.add_argument("script", help="path to the Python script to run")
    parser.add_argument(
        "script_args", nargs=argparse.REMAINDER, metavar="...",
        help="arguments passed through to the script",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the JSON span/metric dump here ('-' = stdout)",
    )
    parser.add_argument(
        "--prom", dest="prom_out", default=None, metavar="PATH",
        help="write the Prometheus text exposition here ('-' = stdout)",
    )
    parser.add_argument(
        "--min-coverage", type=float, default=None, metavar="FRACTION",
        help=(
            "exit non-zero unless the root span's direct children cover at "
            "least this fraction of its wall-clock (e.g. 0.9)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the coverage summary line on stderr",
    )
    return parser


def _write(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
        if not content.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Arm tracing in this process and (via the env) in any Python
    # subprocess the script starts.
    os.environ["REPRO_OBS"] = "1"
    obs.enable()
    obs.reset()

    old_argv = sys.argv
    sys.argv = [args.script] + list(args.script_args)
    script_exit = 0
    try:
        with obs.span("repro-obs", script=args.script):
            try:
                with _ImportSpans():
                    runpy.run_path(args.script, run_name="__main__")
            except SystemExit as exc:  # a script calling sys.exit still exports
                code = exc.code
                script_exit = code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        sys.argv = old_argv

    records = obs.spans()
    if args.json_out:
        _write(args.json_out, export.to_json(records))
    if args.prom_out:
        _write(args.prom_out, export.to_prometheus(records))

    summary = export.span_coverage(records)
    if not args.quiet:
        print(
            "repro-obs: {n} spans, root {root!r} {secs:.3f}s, "
            "direct-child coverage {cov:.1%}".format(
                n=len(records),
                root=summary["root"],
                secs=summary["root_seconds"],
                cov=summary["coverage"],
            ),
            file=sys.stderr,
        )
    if script_exit != 0:
        return script_exit
    if args.min_coverage is not None and summary["coverage"] < args.min_coverage:
        print(
            f"repro-obs: coverage {summary['coverage']:.3f} below required "
            f"{args.min_coverage:.3f}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
