"""Pluggable kernel backends for the Hamming/popcount hot core.

Every Hamming hot path in the reproduction — the tiled top-k search
engine, LOO cross-validation, the serving stack's fused predict —
funnels through three primitive kernels (the *registry contract*,
canonically spelled out in :mod:`repro.kernels.signatures`):

* ``hamming_block``          — dense ``(m, n)`` Hamming block
* ``topk_hamming_tile``      — one query tile vs. the whole store
* ``loo_topk_hamming_tile``  — one row span vs. all other rows

Record encoding is not a registry kernel: its packed bit-plane majority
(:func:`repro.core.bundling.majority_vote_batch`) is plain numpy and beat
the compiled per-bit counters it replaced at every measured shape.

This package makes those kernels *pluggable*: a pure-``numpy`` baseline
(the previous in-tree implementations, extracted verbatim) and an
optional compiled ``native`` backend (cffi C extension with hardware
``popcnt`` via ``__builtin_popcountll``).  Selection mirrors the
``REPRO_WORKERS``/``REPRO_BACKEND`` pattern of
:func:`repro.parallel.pool.resolve_config`:

* ``REPRO_KERNEL=numpy``  — force the numpy baseline.
* ``REPRO_KERNEL=native`` — require the compiled backend; raises
  :class:`~repro.kernels.errors.KernelUnavailableError` with build
  instructions when it cannot be loaded.
* ``REPRO_KERNEL=auto`` (or unset) — use ``native`` when importable,
  silently fall back to ``numpy`` otherwise.

All backends are pinned **bit-identical** to each other and to the
``*_reference`` oracles by the differential suite in ``tests/kernels``;
hdlint HD006 additionally locks every backend module's kernel
signatures to the canonical contract.  Build the native extension with
``python -m repro.kernels.native_build``.
"""

from __future__ import annotations

from repro.kernels.errors import KernelBuildError, KernelUnavailableError
from repro.kernels.registry import (
    KERNEL_ENV,
    VALID_KERNELS,
    KernelBackend,
    active_backend,
    available_backends,
    get_backend,
    native_available,
    refresh,
    register_backend,
    resolve_kernel,
)
from repro.kernels.signatures import KERNEL_NAMES

__all__ = [
    "KERNEL_ENV",
    "KERNEL_NAMES",
    "VALID_KERNELS",
    "KernelBackend",
    "KernelBuildError",
    "KernelUnavailableError",
    "active_backend",
    "available_backends",
    "get_backend",
    "native_available",
    "refresh",
    "register_backend",
    "resolve_kernel",
]
