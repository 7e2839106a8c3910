"""Bad fixture: HD010 ad-hoc environment reads outside the resolvers."""

import os


def workers() -> int:
    return int(os.environ.get("REPRO_WORKERS", "0"))  # line 7: environ.get


def kernel() -> str:
    return os.getenv("REPRO_KERNEL", "auto")  # line 11: os.getenv


def scale() -> str:
    return os.environ["REPRO_BENCH_SCALE"]  # line 15: subscript read


def arm_tracing() -> None:
    # Writing the environment (e.g. the obs CLI arming REPRO_OBS for a
    # child script) is configuration *setting*, not drift — allowed.
    os.environ["REPRO_OBS"] = "1"
