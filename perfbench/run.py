"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_row --seed 1 --seconds 10 --trace 0

Workloads:

* ``serve_row`` — 2 closed-loop keep-alive clients, 1 row per request,
  1-NN ``HammingClassifier`` pipeline served by ``python -m repro.serve``;
* ``serve_batch`` — the same with 512 rows per request and a
  ``PrototypeClassifier`` pipeline;
* ``paper_loo`` — the paper's Table II leave-one-out pass at 10k bits,
  repeated, in this process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics plus the
tracing overhead.  Every output is checked against the repo's reference
oracles; the last line of standard output is the JSON result, and the
exit code is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

import harness
import offline
import serving

WORKLOADS = ("serve_row", "serve_batch", "paper_loo")


def _terminate(signum, frame):  # pragma: no cover - signal path
    # Unwind through every ``finally`` so child servers get SIGTERM too.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    harness.prepare_environment()
    print("fingerprint " + json.dumps(harness.fingerprint(args.workload, args.seed)), flush=True)
    module = serving if args.workload in serving.WORKLOADS else offline
    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.emit(result)
    return 0 if result.correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
