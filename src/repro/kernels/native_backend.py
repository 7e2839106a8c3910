"""Compiled kernel backend: cffi wrappers over ``_repro_kernels_native``.

Loads the extension built by :mod:`repro.kernels.native_build` (plain
import first, then the shared cache directory), verifies its ABI stamp,
and exposes the registry kernels (canonical signatures —
:mod:`repro.kernels.signatures`) as thin zero-copy wrappers:
``ffi.from_buffer`` views the numpy arrays in place and cffi releases
the GIL around every C call, so the thread backend of
:mod:`repro.parallel` scales these kernels across cores.

Import failures are *recorded*, never raised: :func:`available` /
:func:`load_error` report the state, and the registry decides whether
that means fallback (``REPRO_KERNEL=auto``) or a hard
:class:`~repro.kernels.errors.KernelUnavailableError`
(``REPRO_KERNEL=native``).

The C kernels do not tile — one query block walks the whole candidate
store cache-blocked — so the ``tile_cols``/``word_chunk`` knobs are
accepted for contract compatibility and ignored (results are invariant
to them by contract).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.kernels import native_build
from repro.kernels.numpy_backend import _EMPTY

# Loader state: mod is the imported extension (or None), error the
# human-readable reason it could not be used.
_state: Dict[str, Any] = {"checked": False, "mod": None, "error": None}


def _reset() -> None:
    """Forget the cached load attempt (used by ``repro.kernels.refresh``)."""
    _state.update(checked=False, mod=None, error=None)


def _try_import() -> None:
    if _state["checked"]:
        return
    _state["checked"] = True
    mod = None
    try:
        mod = importlib.import_module(native_build.MODULE_NAME)
    except ImportError:
        cache = native_build.default_cache_dir()
        if not any(cache.glob(native_build.MODULE_NAME + "*")):
            _state["error"] = (
                f"extension {native_build.MODULE_NAME!r} is not built; run "
                f"`python -m repro.kernels.native_build` (requires cffi + a C "
                f"compiler) or leave REPRO_KERNEL unset to use numpy"
            )
            return
        if str(cache) not in sys.path:
            sys.path.insert(0, str(cache))
        try:
            mod = importlib.import_module(native_build.MODULE_NAME)
        except ImportError as exc:
            _state["error"] = f"cached build in {cache} failed to import: {exc}"
            return
    abi = mod.lib.repro_kernel_abi()
    if abi != native_build.KERNEL_ABI:
        _state["error"] = (
            f"stale native build (abi {abi}, expected {native_build.KERNEL_ABI}); "
            f"rebuild with `python -m repro.kernels.native_build`"
        )
        return
    _state["mod"] = mod


def available() -> bool:
    """True when the compiled extension is importable and ABI-compatible."""
    _try_import()
    return _state["mod"] is not None


def load_error() -> Optional[str]:
    """Why the extension is unavailable (None when it loaded fine)."""
    _try_import()
    return _state["error"]


def _mod():
    _try_import()
    if _state["mod"] is None:
        from repro.kernels.errors import KernelUnavailableError

        raise KernelUnavailableError(
            f"native kernel backend unavailable: {_state['error']}"
        )
    return _state["mod"]


def _u64(buf: np.ndarray):
    mod = _state["mod"]
    return mod.ffi.from_buffer("uint64_t[]", buf)


# ----------------------------------------------------------------------
# Registry kernels (canonical signatures: repro.kernels.signatures)
# ----------------------------------------------------------------------
def hamming_block(
    A: np.ndarray, B: np.ndarray, *, word_chunk: Optional[int] = None
) -> np.ndarray:
    """Dense ``(m, n)`` int64 Hamming block via hardware popcount."""
    mod = _mod()
    A = np.ascontiguousarray(A, dtype=np.uint64)
    B = np.ascontiguousarray(B, dtype=np.uint64)
    m, n = A.shape[0], B.shape[0]
    out = np.zeros((m, n), dtype=np.int64)
    if m and n and A.shape[-1]:
        mod.lib.repro_hamming_block(
            _u64(A), m, _u64(B), n, A.shape[-1],
            mod.ffi.from_buffer("int64_t[]", out, require_writable=True),
        )
    return out


def topk_hamming_tile(
    Q: np.ndarray, X: np.ndarray, k: int, *, tile_cols: int = 1024, word_chunk: int = 32
) -> Tuple[np.ndarray, np.ndarray]:
    """k nearest candidates per query row (tiling knobs ignored — see module doc)."""
    return _topk(Q, X, k, self_start=-1)


def loo_topk_hamming_tile(
    X: np.ndarray,
    start: int,
    stop: int,
    k: int,
    *,
    tile_cols: int = 1024,
    word_chunk: int = 32,
) -> Tuple[np.ndarray, np.ndarray]:
    """k nearest *other* rows for ``X[start:stop]`` (self-match skipped in C)."""
    X = np.ascontiguousarray(X, dtype=np.uint64)
    return _topk(X[start:stop], X, k, self_start=start)


def _topk(
    Q: np.ndarray, X: np.ndarray, k: int, *, self_start: int
) -> Tuple[np.ndarray, np.ndarray]:
    mod = _mod()
    Q = np.ascontiguousarray(Q, dtype=np.uint64)
    X = np.ascontiguousarray(X, dtype=np.uint64)
    nq = Q.shape[0]
    best_d = np.full((nq, k), _EMPTY, dtype=np.int64)
    best_i = np.full((nq, k), -1, dtype=np.int64)
    if nq and X.shape[0]:
        mod.lib.repro_topk_tile(
            _u64(Q), nq, _u64(X), X.shape[0], X.shape[-1], k, self_start,
            mod.ffi.from_buffer("int64_t[]", best_d, require_writable=True),
            mod.ffi.from_buffer("int64_t[]", best_i, require_writable=True),
        )
    return best_d, best_i
