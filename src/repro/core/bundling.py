"""Majority-vote bundling (S3) — §II-B's record combination step.

Feature hypervectors are combined into one patient hypervector by bitwise
majority: each output bit is the most common bit across the feature
vectors, with ties (even feature counts) resolved to 1 by default, exactly
the paper's rule.  Alternative tie rules (0, random) are exposed for the
A2 ablation.

Implementation: :func:`majority_vote_batch`, the record encoder's hot
path, stays on packed ``uint64`` words end to end.  It folds the ``m``
feature slices into ``ceil(log2(m + 1))`` carry-save bit-planes (plane
``b`` holds bit ``b`` of every per-bit vote count) and compares the planes
MSB-first against the threshold, so a batch never materialises an
``(n, dim)`` count matrix — the bit-serial counting of uHD (PAPERS.md),
done in software with one word-wide bitwise op per 64 counters.
:func:`majority_dense` is the plain integer-sum definition the packed
path is tested against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.hypervector import n_words, pack_bits, unpack_bits
from repro.utils.contracts import checks_packed
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

_TIE_RULES = ("one", "zero", "random")


def majority_dense(
    bits: np.ndarray,
    *,
    tie: str = "one",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Majority vote over axis 0 of a dense 0/1 array ``(m, dim)``.

    Returns a dense uint8 vector of length ``dim``.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"bits must be (m, dim), got shape {bits.shape}")
    m = bits.shape[0]
    if m == 0:
        raise ValueError("cannot take a majority over zero vectors")
    if tie not in _TIE_RULES:
        raise ValueError(f"tie must be one of {_TIE_RULES}, got {tie!r}")
    counts = bits.sum(axis=0, dtype=np.int64)
    double = 2 * counts
    out = (double > m).astype(np.uint8)
    if m % 2 == 0:
        tied = double == m
        if tie == "one":
            out[tied] = 1
        elif tie == "zero":
            out[tied] = 0
        else:
            gen = rng if rng is not None else as_generator(None)
            out[tied] = gen.integers(0, 2, size=int(tied.sum()), dtype=np.uint8)
    return out


def majority_vote(
    packed: np.ndarray,
    dim: int,
    *,
    tie: str = "one",
    seed: SeedLike = None,
) -> np.ndarray:
    """Majority-bundle ``m`` packed hypervectors ``(m, words)`` into one.

    Parameters
    ----------
    packed : (m, words) uint64
        The feature hypervectors of one record.
    dim:
        Bit dimensionality (needed to ignore padding bits).
    tie:
        ``"one"`` (paper default), ``"zero"``, or ``"random"``.
    seed:
        Only used by the random tie rule.

    Returns
    -------
    (words,) uint64 — the bundled record hypervector.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError(f"packed must be (m, words), got shape {packed.shape}")
    dense = unpack_bits(packed, dim)
    rng = as_generator(seed) if tie == "random" else None
    voted = majority_dense(dense, tie=tie, rng=rng)
    return pack_bits(voted[None, :], dim)[0]


def _count_planes(packed_stack: np.ndarray) -> List[np.ndarray]:
    """Per-bit vote counts of ``(n, m, words)`` as carry-save bit-planes.

    Plane ``b`` holds bit ``b`` of every count, packed like the input, so
    ``m`` voters need ``ceil(log2(m + 1))`` planes of shape ``(n, words)``.
    Adding feature ``j`` ripples a carry through the planes (a vertical
    ripple-carry adder on whole words); a new plane starts when ``j + 1``
    reaches a power of two, the only time the final carry can be nonzero.
    """
    planes: List[np.ndarray] = []
    for j in range(packed_stack.shape[1]):
        carry = packed_stack[:, j, :].copy()
        for plane in planes:
            plane ^= carry
            carry &= ~plane  # the old plane bit, where carry was set
        if (j + 1) & j == 0:
            planes.append(carry)
    return planes


def _count_at_least(planes: List[np.ndarray], c: int) -> np.ndarray:
    """Packed mask of bits whose plane-encoded count is ``>= c`` (``c >= 1``).

    Walks the planes MSB-first against the constant ``c``: ``gt`` marks
    counts already known greater, ``eq`` counts equal on every plane so far.
    """
    gt = np.zeros_like(planes[0])
    eq = np.full_like(planes[0], np.uint64(0xFFFFFFFFFFFFFFFF))
    for b in range(len(planes) - 1, -1, -1):
        if (c >> b) & 1:
            eq &= planes[b]
        else:
            gt |= eq & planes[b]
            eq &= ~planes[b]
    return gt | eq


def _majority_and_ties(
    packed_stack: np.ndarray, tie: str
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The packed majority of a validated stack, before any random tie draw.

    Returns ``(out, tied)``.  ``tied`` is ``None`` unless ``tie ==
    "random"`` and the feature count is even; then ``out`` has every tied
    bit at 0 and ``tied`` is the packed mask of those bits, for
    :func:`_break_ties`.  Split out so the record encoder can bundle row
    chunks in parallel and still draw the ties in one global pass.
    """
    m = packed_stack.shape[1]
    planes = _count_planes(packed_stack)
    half = m // 2
    # Odd m has no ties; even m with ties -> 1 sets every count >= m/2.
    # Padding bits hold count 0, so every threshold (>= 1) leaves them 0.
    out = _count_at_least(planes, half if tie == "one" and m % 2 == 0 else half + 1)
    tied = None
    if tie == "random" and m % 2 == 0:
        tied = _count_at_least(planes, half) & ~out
    return out, tied


def _break_ties(
    out: np.ndarray,
    tied: np.ndarray,
    dim: int,
    seed: SeedLike,
    chunk_rows: int = 2048,
) -> np.ndarray:
    """Set each tied bit of ``out`` to a fair coin flip, in place.

    One ``integers(0, 2)`` draw per tied bit, in row-major bit order —
    the same draws :func:`majority_dense` makes for one vector.  The draw
    is sized from the packed mask's popcount and scattered ``chunk_rows``
    rows at a time, so only one chunk's tie mask is ever unpacked.
    """
    counts = np.bitwise_count(tied).sum(axis=1, dtype=np.int64)
    draws = as_generator(seed).integers(0, 2, size=int(counts.sum()), dtype=np.uint8)
    offset = 0
    for start in range(0, out.shape[0], chunk_rows):
        stop = start + chunk_rows
        bits = unpack_bits(tied[start:stop], dim).view(bool)
        n_tied = int(counts[start:stop].sum())
        bits[bits] = draws[offset : offset + n_tied].view(bool)
        offset += n_tied
        out[start:stop] |= pack_bits(bits, dim)
    return out


@checks_packed("packed_stack", dim_param="dim")
def majority_vote_batch(
    packed_stack: np.ndarray,
    dim: int,
    *,
    tie: str = "one",
    seed: SeedLike = None,
) -> np.ndarray:
    """Majority-bundle a batch: ``(n, m, words) -> (n, words)``.

    This is the hot path of record encoding (n patients x m features).  It
    never leaves the packed domain: votes are counted in carry-save
    bit-planes and compared against the threshold word by word.  Only the
    random tie rule unpacks, and only its tie mask.
    """
    check_positive_int(dim, "dim")
    packed_stack = np.asarray(packed_stack, dtype=np.uint64)
    if packed_stack.ndim != 3:
        raise ValueError(
            f"packed_stack must be (n, m, words), got shape {packed_stack.shape}"
        )
    if packed_stack.shape[1] == 0:
        raise ValueError("cannot take a majority over zero vectors")
    if tie not in _TIE_RULES:
        raise ValueError(f"tie must be one of {_TIE_RULES}, got {tie!r}")
    if packed_stack.shape[2] != n_words(dim):
        raise ValueError(
            f"packed_stack has {packed_stack.shape[2]} words per vector, "
            f"dim={dim} needs {n_words(dim)}"
        )
    out, tied = _majority_and_ties(packed_stack, tie)
    return out if tied is None else _break_ties(out, tied, dim, seed)


def weighted_majority(
    packed: np.ndarray,
    dim: int,
    weights: np.ndarray,
    *,
    tie: str = "one",
    seed: SeedLike = None,
) -> np.ndarray:
    """Weighted majority bundle (extension beyond the paper).

    Each feature vector votes with a non-negative weight; a bit is set when
    the weighted sum of ones exceeds half the total weight.  With unit
    weights this reduces exactly to :func:`majority_vote`.  Exposed so the
    encoding ablation can emphasise clinically-dominant features (e.g.
    glucose) without changing the pipeline.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    weights = np.asarray(weights, dtype=np.float64)
    if packed.ndim != 2:
        raise ValueError("packed must be (m, words)")
    if weights.shape != (packed.shape[0],):
        raise ValueError(
            f"weights shape {weights.shape} != ({packed.shape[0]},)"
        )
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and non-negative")
    total = weights.sum()
    if total == 0:
        raise ValueError("at least one weight must be positive")
    dense = unpack_bits(packed, dim).astype(np.float64)
    score = weights @ dense  # (dim,)
    out = (score > total / 2).astype(np.uint8)
    tied = np.isclose(score, total / 2)
    if tie == "one":
        out[tied] = 1
    elif tie == "zero":
        out[tied] = 0
    elif tie == "random":
        rng = as_generator(seed)
        out[tied] = rng.integers(0, 2, size=int(tied.sum()), dtype=np.uint8)
    else:
        raise ValueError(f"tie must be one of {_TIE_RULES}, got {tie!r}")
    return pack_bits(out[None, :], dim)[0]
