"""Backend registry + ``REPRO_KERNEL`` resolution.

Mirrors the env-resolution contract of
:func:`repro.parallel.pool.resolve_config` (``REPRO_WORKERS`` /
``REPRO_BACKEND``): an explicit argument always beats the environment,
``REPRO_KERNEL`` fills in when no argument is given, an invalid value
raises a ``ValueError`` that names the variable, and the resolved
outcome is fully introspectable (:func:`active_backend`,
:func:`available_backends`).

Resolution semantics::

    REPRO_KERNEL=numpy    force the numpy baseline
    REPRO_KERNEL=native   require the compiled backend (raises
                          KernelUnavailableError when it cannot load)
    REPRO_KERNEL=auto     native when importable, else numpy (default)

Backends are plain modules of kernel functions (canonical signatures in
:mod:`repro.kernels.signatures`); the registry wraps them into immutable
:class:`KernelBackend` records and caches one instance per name.
Backend modules are imported lazily inside the factories so importing
``repro.kernels`` never pays for (or fails on) a backend that is never
selected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.kernels.errors import KernelUnavailableError

KERNEL_ENV = "REPRO_KERNEL"

#: Values accepted by ``REPRO_KERNEL`` / :func:`resolve_kernel`.
VALID_KERNELS = ("auto", "numpy", "native")


@dataclass(frozen=True)
class KernelBackend:
    """One resolved backend: a name plus bound registry kernels.

    ``fused`` marks backends whose :attr:`loo_topk_hamming_tile` runs
    the whole leave-one-out scan for a row span in one call — the
    dispatcher in :mod:`repro.core.search` then fans row spans straight
    out to workers instead of walking mirrored triangle tiles.
    """

    name: str
    fused: bool
    hamming_block: Callable
    topk_hamming_tile: Callable
    loo_topk_hamming_tile: Callable


def _make_numpy() -> KernelBackend:
    from repro.kernels import numpy_backend as m

    return KernelBackend(
        name="numpy",
        fused=False,
        hamming_block=m.hamming_block,
        topk_hamming_tile=m.topk_hamming_tile,
        loo_topk_hamming_tile=m.loo_topk_hamming_tile,
    )


def _make_native() -> KernelBackend:
    from repro.kernels import native_backend as m

    if not m.available():
        raise KernelUnavailableError(
            f"{KERNEL_ENV}=native requested but the compiled backend cannot "
            f"load: {m.load_error()}"
        )
    return KernelBackend(
        name="native",
        fused=True,
        hamming_block=m.hamming_block,
        topk_hamming_tile=m.topk_hamming_tile,
        loo_topk_hamming_tile=m.loo_topk_hamming_tile,
    )


_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "numpy": _make_numpy,
    "native": _make_native,
}
_instances: Dict[str, KernelBackend] = {}


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register an additional backend factory under ``name``.

    ``auto`` and already-registered names are rejected; a registered
    backend becomes selectable via ``get_backend(name)`` (env selection
    stays restricted to :data:`VALID_KERNELS`).
    """
    if not name or name == "auto":
        raise ValueError(f"invalid backend name {name!r}")
    if name in _FACTORIES:
        raise ValueError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory


def native_available() -> bool:
    """True when the compiled extension is importable (no exceptions)."""
    from repro.kernels import native_backend

    return native_backend.available()


def resolve_kernel(choice: Optional[str] = None) -> str:
    """Resolve a backend *name* from an explicit choice or ``REPRO_KERNEL``.

    ``None`` defers to the environment (default ``auto``); ``auto``
    resolves to ``native`` when the extension loads, else ``numpy``.
    Invalid values raise ``ValueError`` naming ``REPRO_KERNEL`` when
    they came from the environment.
    """
    from_env = False
    if choice is None:
        env = os.environ.get(KERNEL_ENV)
        from_env = env is not None
        choice = env if env is not None else "auto"
    valid = ("auto",) + tuple(sorted(_FACTORIES))
    if choice not in valid:
        source = KERNEL_ENV if from_env else "kernel backend"
        raise ValueError(f"{source} must be one of {valid}, got {choice!r}")
    if choice == "auto":
        return "native" if native_available() else "numpy"
    return choice


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """The resolved, cached :class:`KernelBackend` for ``name`` (or the env)."""
    resolved = resolve_kernel(name)
    backend = _instances.get(resolved)
    if backend is None:
        backend = _FACTORIES[resolved]()
        _instances[resolved] = backend
    return backend


def active_backend() -> str:
    """Name of the backend the current environment resolves to."""
    return get_backend().name


def available_backends() -> Dict[str, bool]:
    """Loadability of every registered backend (never raises)."""
    out: Dict[str, bool] = {}
    for name in sorted(_FACTORIES):
        if name in _instances:
            out[name] = True
        elif name == "native":
            out[name] = native_available()
        else:
            try:
                _instances[name] = _FACTORIES[name]()
                out[name] = True
            except Exception:
                out[name] = False
    return out


def refresh() -> None:
    """Drop cached backend instances and forget native load attempts.

    Call after building the extension mid-process (tests, notebooks) so
    the next resolution sees it.
    """
    _instances.clear()
    from repro.kernels import native_backend

    native_backend._reset()
