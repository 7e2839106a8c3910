"""Canonical kernel signatures — the registry's dispatch contract.

Each stub below is the *normative* positional signature of one registry
kernel.  Backend modules (``repro/kernels/*_backend.py``) must define
their implementations with exactly these positional parameters and
keyword defaults; hdlint HD006 parses this module's source and flags any
backend function whose positional signature drifts, the same way it
locks ``foo``/``foo_reference`` pairs.  The stubs are never called — the
registry binds real implementations from the backend modules.

Contract notes shared by every backend
--------------------------------------
* Inputs arrive **validated**: C-contiguous ``uint64`` packed arrays
  with matching word counts and ``k`` already clamped to the candidate
  count.  Validation,
  runtime contracts, and obs spans live in the :mod:`repro.core`
  dispatchers, not in backends.
* All distance outputs are int64.  No float intermediates anywhere (hdlint HD002 checks backends too).
* Tie-break: top-k rows are sorted ascending by ``(distance, index)``
  with ties to the lowest candidate index — exactly stable-argsort
  order.  Unfilled slots hold ``(int64 max, -1)``.
* Tiling knobs (``tile_cols``, ``word_chunk``) bound working-set memory
  only; results are invariant to them, and a backend that does not tile
  (the native one) may ignore them.
"""

from __future__ import annotations

# Kernel names the registry binds — one entry per stub below.
KERNEL_NAMES = (
    "hamming_block",
    "topk_hamming_tile",
    "loo_topk_hamming_tile",
)


def hamming_block(A, B, *, word_chunk=None):
    """Dense ``(m, n)`` int64 Hamming block between packed batches."""
    raise NotImplementedError("canonical signature stub — use repro.kernels.get_backend()")


def topk_hamming_tile(Q, X, k, *, tile_cols=1024, word_chunk=32):
    """k nearest candidates of ``X`` per row of query tile ``Q``.

    Returns ``(best_d, best_i)`` int64 ``(len(Q), k)`` arrays, each row
    ascending by ``(distance, index)``.
    """
    raise NotImplementedError("canonical signature stub — use repro.kernels.get_backend()")


def loo_topk_hamming_tile(X, start, stop, k, *, tile_cols=1024, word_chunk=32):
    """k nearest *other* rows of ``X`` for rows ``start:stop`` (leave-one-out).

    Returns ``(best_d, best_i)`` int64 ``(stop - start, k)`` arrays with
    the self-match excluded; requires ``k <= len(X) - 1``.
    """
    raise NotImplementedError("canonical signature stub — use repro.kernels.get_backend()")
