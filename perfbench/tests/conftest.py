"""Make the benchmark's modules importable as they are when run.py runs."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.prepare_environment()
