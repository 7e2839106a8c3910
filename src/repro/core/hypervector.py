"""Bit-packed binary hypervectors (S1).

The paper works with 10,000-bit binary hypervectors.  Storing them as one
byte per bit wastes 8x memory and, more importantly, 8x memory bandwidth in
the Hamming kernels, so the canonical representation here is **bit-packed
little-endian ``uint64`` words**: a batch of ``n`` hypervectors of
dimensionality ``dim`` is a ``(n, ceil(dim/64))`` ``uint64`` array.  All
bitwise algebra (XOR binding, majority bundling, popcount) runs directly on
the packed words; dense ``uint8`` 0/1 matrices are materialised only at the
boundary with the ML estimators, which consume per-bit columns.

Padding invariant
-----------------
When ``dim`` is not a multiple of 64 the trailing bits of the last word are
*always zero*.  Every operation in this module preserves that invariant
(masking after NOT-like operations), so popcounts and Hamming distances
never see garbage bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.utils.contracts import checks_packed
from repro.utils.rng import SeedLike, as_generator

WORD_BITS = 64


def n_words(dim: int) -> int:
    """Number of 64-bit words needed for ``dim`` bits."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return (dim + WORD_BITS - 1) // WORD_BITS


def tail_mask(dim: int) -> np.uint64:
    """Mask of valid bits in the final word (all-ones if dim % 64 == 0)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rem = dim % WORD_BITS
    if rem == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << rem) - 1)


def _apply_tail_mask(packed: np.ndarray, dim: int) -> np.ndarray:
    """Zero the padding bits of the last word, in place."""
    packed[..., -1] &= tail_mask(dim)
    return packed


def pack_bits(bits: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
    """Pack a dense 0/1 array of shape ``(..., dim)`` into uint64 words.

    Accepts bool or integer input; any nonzero value counts as 1.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0:
        raise ValueError("bits must have at least 1 dimension")
    if dim is None:
        dim = bits.shape[-1]
    if dim != bits.shape[-1]:
        raise ValueError(f"dim={dim} does not match last axis {bits.shape[-1]}")
    if dim < 1:
        raise ValueError("cannot pack an empty bit axis")
    as_bool = bits.astype(bool, copy=False)
    packed8 = np.packbits(as_bool, axis=-1, bitorder="little")
    pad = n_words(dim) * 8 - packed8.shape[-1]
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    packed8 = np.ascontiguousarray(packed8)
    return packed8.view(np.uint64)


@checks_packed("packed", dim_param="dim")
def unpack_bits(packed: np.ndarray, dim: int) -> np.ndarray:
    """Unpack uint64 words back to a dense uint8 0/1 array of width ``dim``."""
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.shape[-1] != n_words(dim):
        raise ValueError(
            f"packed last axis {packed.shape[-1]} != n_words({dim}) = {n_words(dim)}"
        )
    bytes_view = np.ascontiguousarray(packed).view(np.uint8)
    return np.unpackbits(bytes_view, axis=-1, bitorder="little", count=dim)


def random_packed(
    shape: Union[int, Sequence[int]],
    dim: int,
    seed: SeedLike = None,
    *,
    density: float = 0.5,
) -> np.ndarray:
    """Random packed hypervectors with i.i.d. Bernoulli(density) bits.

    ``density=0.5`` (the paper's "partially dense" seed) is generated
    directly from random words for speed; other densities sample dense
    bits and pack.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = as_generator(seed)
    if np.isscalar(shape):
        shape = (int(shape),)
    full_shape = tuple(shape) + (n_words(dim),)
    if density == 0.5:
        words = rng.integers(0, 2**64, size=full_shape, dtype=np.uint64)
        return _apply_tail_mask(words, dim)
    bits = rng.random(tuple(shape) + (dim,)) < density
    return pack_bits(bits, dim)


def exact_half_dense(dim: int, seed: SeedLike = None) -> np.ndarray:
    """A single packed hypervector with *exactly* ``dim // 2`` ones.

    §II-B step 2 asks for a seed with "an equal amount of 1s and 0s"; this
    constructs it exactly (odd ``dim`` gets ``dim // 2`` ones) via a
    shuffled half-and-half bit template.
    """
    rng = as_generator(seed)
    bits = np.zeros(dim, dtype=np.uint8)
    bits[: dim // 2] = 1
    rng.shuffle(bits)
    return pack_bits(bits[None, :], dim)[0]


def popcount(packed: np.ndarray, *, axis: int = -1) -> np.ndarray:
    """Number of set bits per hypervector (sums ``bitwise_count`` words)."""
    counts = np.bitwise_count(np.asarray(packed, dtype=np.uint64))
    return counts.sum(axis=axis, dtype=np.int64)


def xor_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise XOR (HDC *binding*) of packed operands (broadcasting ok)."""
    return np.bitwise_xor(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))


@checks_packed("a", dim_param="dim")
def not_packed(a: np.ndarray, dim: int) -> np.ndarray:
    """Bitwise complement restricted to the valid ``dim`` bits."""
    out = np.bitwise_not(np.asarray(a, dtype=np.uint64)).copy()
    return _apply_tail_mask(out, dim)


@checks_packed("packed", dim_param="dim")
def flip_bits(packed: np.ndarray, dim: int, positions: np.ndarray) -> np.ndarray:
    """Return a copy of a single packed vector with ``positions`` toggled."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= dim):
        raise ValueError("flip positions out of range")
    out = np.array(packed, dtype=np.uint64, copy=True)
    words = positions // WORD_BITS
    offsets = (positions % WORD_BITS).astype(np.uint64)
    np.bitwise_xor.at(out, words, np.uint64(1) << offsets)
    return out


def bit_positions(packed: np.ndarray, dim: int, value: int) -> np.ndarray:
    """Indices (ascending) of bits equal to ``value`` (0 or 1) in one vector."""
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    dense = unpack_bits(np.asarray(packed, dtype=np.uint64)[None, :], dim)[0]
    return np.flatnonzero(dense == value)


@dataclass(frozen=True)
class Hypervector:
    """A single immutable binary hypervector.

    Thin, safe facade over a packed word array.  Batch pipelines use the
    raw packed representation directly; this class is the unit-level API
    used in examples, the item memory, and anywhere readability beats
    throughput.
    """

    packed: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        packed = np.asarray(self.packed, dtype=np.uint64)
        if packed.ndim != 1 or packed.shape[0] != n_words(self.dim):
            raise ValueError(
                f"packed must be 1-d with {n_words(self.dim)} words, got {packed.shape}"
            )
        object.__setattr__(self, "packed", packed)
        if int(packed[-1] & ~tail_mask(self.dim)):
            raise ValueError("padding bits beyond dim must be zero")

    # -- constructors -------------------------------------------------
    @classmethod
    def random(cls, dim: int, seed: SeedLike = None, *, density: float = 0.5) -> "Hypervector":
        return cls(random_packed(1, dim, seed, density=density)[0], dim)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Hypervector":
        bits = np.asarray(bits)
        return cls(pack_bits(bits[None, :])[0], int(bits.shape[-1]))

    @classmethod
    def zeros(cls, dim: int) -> "Hypervector":
        return cls(np.zeros(n_words(dim), dtype=np.uint64), dim)

    @classmethod
    def ones(cls, dim: int) -> "Hypervector":
        return cls(_apply_tail_mask(np.full(n_words(dim), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64), dim), dim)

    # -- algebra ------------------------------------------------------
    def __xor__(self, other: "Hypervector") -> "Hypervector":
        self._check_compatible(other)
        return Hypervector(xor_packed(self.packed, other.packed), self.dim)

    def __invert__(self) -> "Hypervector":
        return Hypervector(not_packed(self.packed, self.dim), self.dim)

    def flip(self, positions: np.ndarray) -> "Hypervector":
        return Hypervector(flip_bits(self.packed, self.dim, positions), self.dim)

    # -- measurement --------------------------------------------------
    def hamming(self, other: "Hypervector") -> int:
        """Raw Hamming distance (number of differing bits)."""
        self._check_compatible(other)
        return int(popcount(xor_packed(self.packed, other.packed)))

    def normalized_hamming(self, other: "Hypervector") -> float:
        """Hamming distance divided by dimensionality, in [0, 1]."""
        return self.hamming(other) / self.dim

    def count_ones(self) -> int:
        return int(popcount(self.packed))

    def density(self) -> float:
        return self.count_ones() / self.dim

    # -- conversion ---------------------------------------------------
    def to_bits(self) -> np.ndarray:
        """Dense uint8 0/1 array of length ``dim``."""
        return unpack_bits(self.packed[None, :], self.dim)[0]

    def __getitem__(self, index: int) -> int:
        if not -self.dim <= index < self.dim:
            raise IndexError(f"bit index {index} out of range for dim {self.dim}")
        index %= self.dim
        word, offset = divmod(index, WORD_BITS)
        return int((self.packed[word] >> np.uint64(offset)) & np.uint64(1))

    def __len__(self) -> int:
        return self.dim

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_bits().tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypervector):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.packed, other.packed))

    def __hash__(self) -> int:
        return hash((self.dim, self.packed.tobytes()))

    def __repr__(self) -> str:
        return f"Hypervector(dim={self.dim}, ones={self.count_ones()})"

    def _check_compatible(self, other: "Hypervector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def stack(hvs: Sequence[Hypervector]) -> np.ndarray:
    """Stack Hypervector objects into a packed ``(n, words)`` batch array."""
    if not hvs:
        raise ValueError("cannot stack an empty sequence")
    dim = hvs[0].dim
    for hv in hvs:
        if hv.dim != dim:
            raise ValueError("all hypervectors must share one dimensionality")
    return np.stack([hv.packed for hv in hvs])
