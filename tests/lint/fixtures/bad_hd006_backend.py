"""HD006 backend fixture: three kernels drift from the registry contract.

Linted under the synthetic path ``src/repro/kernels/bad_backend.py`` so the
backend-signature branch of HD006 compares each module-level kernel against
the canonical stubs in ``repro.kernels.signatures``:

* ``hamming_block`` demotes ``word_chunk`` from keyword-only to positional;
* ``topk_hamming_tile`` grows a default on the positional ``k``;
* ``loo_topk_hamming_tile`` renames ``stop`` to ``end``.

``_merge`` is a private helper, not a registry kernel, and must stay silent.
"""


def hamming_block(A, B, word_chunk=None):  # drift: word_chunk now positional
    return A ^ B


def topk_hamming_tile(Q, X, k=1, *, tile_cols=1024, word_chunk=32):  # drift: default on k
    return Q, X, k


def loo_topk_hamming_tile(X, start, end, k, *, tile_cols=1024, word_chunk=32):  # drift: stop renamed
    return X, start, end, k


def _merge(best, block):
    return best, block
