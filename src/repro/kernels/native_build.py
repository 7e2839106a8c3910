"""Build tool for the optional compiled kernel backend.

Compiles ``_repro_kernels_native`` — a small cffi C extension with
hardware popcount (``__builtin_popcountll``) implementations of the
registry kernels — into a cache directory outside the source tree::

    python -m repro.kernels.native_build            # build into the cache
    python -m repro.kernels.native_build --check    # report availability

The cache location defaults to
``$XDG_CACHE_HOME/repro-kernels/<py-platform-tag>`` (``~/.cache/...``)
and is overridden by ``REPRO_KERNEL_CACHE``; the loader in
:mod:`repro.kernels.native_backend` searches the same place, so a build
is picked up by every later process without an install step.  This
module stays importable with **stdlib only** — cffi is required to
*build*, never to ask where the cache is or to fall back to numpy.

Compile flags are tried in order (``-O3 -funroll-loops`` with
``-march=native``, then without, then bare) so exotic toolchains still
produce a working extension.
"""

from __future__ import annotations

import argparse
import os
import sys
import sysconfig
from pathlib import Path
from typing import List, Optional

MODULE_NAME = "_repro_kernels_native"

# Bumped whenever the C ABI below changes; the loader refuses mismatches
# so a stale cached build can never produce silently-wrong results.
KERNEL_ABI = 2

CACHE_ENV = "REPRO_KERNEL_CACHE"

CDEF = """
int repro_kernel_abi(void);
void repro_hamming_block(const uint64_t *A, long m,
                         const uint64_t *B, long n,
                         long words, int64_t *out);
void repro_topk_tile(const uint64_t *Q, long nq,
                     const uint64_t *X, long nx,
                     long words, long k, long self_start,
                     int64_t *best_d, int64_t *best_i);
"""

C_SOURCE = r"""
#include <stdint.h>

/* Bumped in lockstep with KERNEL_ABI in native_build.py. */
int repro_kernel_abi(void) { return 2; }

static inline int64_t hamming_words(const uint64_t *a, const uint64_t *b,
                                    long words) {
    int64_t d = 0;
    for (long w = 0; w < words; w++)
        d += (int64_t)__builtin_popcountll(a[w] ^ b[w]);
    return d;
}

void repro_hamming_block(const uint64_t *A, long m,
                         const uint64_t *B, long n,
                         long words, int64_t *out) {
    for (long i = 0; i < m; i++) {
        const uint64_t *a = A + i * words;
        int64_t *row = out + i * n;
        for (long j = 0; j < n; j++)
            row[j] = hamming_words(a, B + j * words, words);
    }
}

/* Streaming exact top-k: per query an insertion-sorted (distance, index)
 * array of k slots, pre-filled by the caller with (INT64_MAX, -1).
 * Candidates are visited in ascending index order, insertion shifts only
 * while the held distance is strictly greater, and full lists reject
 * d >= worst — together that reproduces the stable-argsort tie-break
 * (ties to the lowest candidate index) bit-for-bit.  self_start >= 0
 * marks the leave-one-out case: query q is candidate self_start + q and
 * skips itself.  Candidate blocks keep X rows cache-resident across the
 * query loop. */
#define REPRO_CBLOCK 512

void repro_topk_tile(const uint64_t *Q, long nq,
                     const uint64_t *X, long nx,
                     long words, long k, long self_start,
                     int64_t *best_d, int64_t *best_i) {
    for (long c0 = 0; c0 < nx; c0 += REPRO_CBLOCK) {
        long c1 = c0 + REPRO_CBLOCK < nx ? c0 + REPRO_CBLOCK : nx;
        for (long q = 0; q < nq; q++) {
            const uint64_t *qv = Q + q * words;
            int64_t *bd = best_d + q * k;
            int64_t *bi = best_i + q * k;
            int64_t worst = bd[k - 1];
            for (long c = c0; c < c1; c++) {
                if (self_start >= 0 && c == self_start + q)
                    continue;
                int64_t d = hamming_words(qv, X + c * words, words);
                if (d >= worst)
                    continue;
                long p = k - 1;
                while (p > 0 && bd[p - 1] > d) {
                    bd[p] = bd[p - 1];
                    bi[p] = bi[p - 1];
                    p--;
                }
                bd[p] = d;
                bi[p] = c;
                worst = bd[k - 1];
            }
        }
    }
}
"""

BASE_FLAGS = ["-O3", "-funroll-loops"]


def default_cache_dir() -> Path:
    """Where built extensions live: ``REPRO_KERNEL_CACHE`` or the user cache.

    The directory is keyed by the interpreter/platform tag so a shared
    home directory never mixes incompatible binaries.
    """
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    root = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    tag = f"cp{sys.version_info.major}{sys.version_info.minor}-{sysconfig.get_platform()}"
    return Path(root) / "repro-kernels" / tag


def build(target_dir: Optional[os.PathLike] = None, *, verbose: bool = False) -> Path:
    """Compile the extension into ``target_dir`` (default: the cache dir).

    Returns the path of the built shared object.  Raises
    :class:`repro.kernels.errors.KernelBuildError` when cffi is missing
    or every compile-flag attempt fails.
    """
    from repro.kernels.errors import KernelBuildError

    try:
        from cffi import FFI
    except ImportError as exc:
        raise KernelBuildError(
            "building the native kernel backend requires cffi "
            "(pip install 'repro[native]'); the numpy backend needs no build"
        ) from exc

    target = Path(target_dir) if target_dir is not None else default_cache_dir()
    target.mkdir(parents=True, exist_ok=True)

    attempts: List[List[str]] = [BASE_FLAGS + ["-march=native"], BASE_FLAGS, []]
    last_error: Optional[BaseException] = None
    for flags in attempts:
        builder = FFI()
        builder.cdef(CDEF)
        builder.set_source(MODULE_NAME, C_SOURCE, extra_compile_args=flags)
        try:
            return Path(builder.compile(tmpdir=str(target), verbose=verbose))
        except Exception as exc:  # distutils/cc failures come in many shapes
            last_error = exc
    raise KernelBuildError(
        f"native kernel build failed with every flag set {attempts}: {last_error}"
    ) from last_error


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kernels.native_build",
        description="Build the compiled (cffi) kernel backend.",
    )
    parser.add_argument(
        "--target", default=None,
        help=f"output directory (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="report whether the native backend currently loads, then exit",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.check:
        from repro.kernels import native_backend

        if native_backend.available():
            print(f"native backend OK (abi {KERNEL_ABI})")
            return 0
        print(f"native backend unavailable: {native_backend.load_error()}")
        return 1

    from repro.kernels.errors import KernelBuildError

    try:
        built = build(args.target, verbose=args.verbose)
    except KernelBuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"built {built}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
