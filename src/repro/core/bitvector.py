"""Plain packed bit-vectors with vectorized rank/select support.

This is the *uncompressed* building block of the reproduction.  It serves
three roles:

1. the intermediate representation while constructing wavelet-tree levels
   (the construction kernels are fully vectorized over numpy word arrays);
2. the correctness oracle for the RRR structure (property tests check
   ``RRRVector.rank1 == BitVector.rank1`` on random inputs);
3. the "no compression" end of the space/time ablation
   (``benchmarks/bench_ablation_structures.py``).

Bits are stored LSB-first inside 64-bit words: bit ``i`` of the vector is
bit ``i % 64`` of word ``i // 64``.  All positional arguments follow the
half-open Python convention — ``rank1(p)`` counts ones in ``B[0:p]`` — which
maps onto the paper's 1-based ``rank_1(B, p)`` (ones in ``B[1, p]``) without
off-by-one adjustment.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

WORD_BITS = 64

# 16-bit popcount lookup table: popcount of any uint16 in one gather.  Used
# to popcount uint64 words four lanes at a time without Python loops.
_POP16 = (
    np.unpackbits(np.arange(1 << 16, dtype="<u2").view(np.uint8))
    .reshape(-1, 16)
    .sum(axis=1, dtype=np.uint8)
)


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a ``uint64`` array.

    Splits each word into four 16-bit lanes and gathers from a precomputed
    table; this is the standard table-driven popcount and keeps the whole
    computation inside numpy.
    """
    w = np.ascontiguousarray(words, dtype=np.uint64)
    lanes = w.view(np.uint16).reshape(w.shape + (4,))
    return _POP16[lanes].sum(axis=-1, dtype=np.int64)


def popcount_scalar(word: int) -> int:
    """Popcount of a Python integer (arbitrary width)."""
    return bin(word).count("1")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array into LSB-first ``uint64`` words."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    n_words = (n + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros(n_words * WORD_BITS, dtype=np.uint8)
    padded[:n] = bits
    # np.packbits is MSB-first per byte; bitorder='little' gives LSB-first.
    packed_bytes = np.packbits(padded, bitorder="little")
    return packed_bytes.view(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: first ``n`` bits as a uint8 array."""
    as_bytes = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)
    bits = np.unpackbits(as_bytes, bitorder="little")
    return bits[:n]


class BitVector:
    """Immutable packed bit-vector with O(1) rank after indexing.

    Parameters
    ----------
    bits:
        Anything convertible to a 0/1 uint8 array (list, numpy array,
        generator via ``from_iterable``).
    build_rank_index:
        When true (default) a per-word cumulative popcount array is built,
        making :meth:`rank1` O(1).  Construction-only intermediates can skip
        it.
    """

    __slots__ = ("n", "words", "_rank_index")

    def __init__(self, bits, build_rank_index: bool = True):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError(f"bits must be one-dimensional, got shape {bits.shape}")
        if bits.size and bits.max(initial=0) > 1:
            raise ValueError("bit values must be 0 or 1")
        self.n = int(bits.size)
        self.words = pack_bits(bits)
        self._rank_index: np.ndarray | None = None
        if build_rank_index:
            self._build_rank_index()

    @classmethod
    def from_words(cls, words: np.ndarray, n: int) -> "BitVector":
        """Wrap pre-packed words (no copy of the unpacked form)."""
        if n < 0:
            raise ValueError("length must be non-negative")
        need = (n + WORD_BITS - 1) // WORD_BITS
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.size < need:
            raise ValueError(f"{words.size} words cannot hold {n} bits")
        bv = cls.__new__(cls)
        bv.n = int(n)
        bv.words = words[:need].copy()
        # Zero any tail bits beyond n so popcounts stay exact.
        if n % WORD_BITS and need:
            keep = np.uint64((1 << (n % WORD_BITS)) - 1)
            bv.words[-1] &= keep
        bv._rank_index = None
        bv._build_rank_index()
        return bv

    @classmethod
    def from_iterable(cls, it: Iterable[int]) -> "BitVector":
        return cls(np.fromiter(it, dtype=np.uint8))

    def _build_rank_index(self) -> None:
        pops = popcount_u64(self.words)
        # _rank_index[i] = number of ones in words[:i]
        self._rank_index = np.concatenate(
            ([0], np.cumsum(pops, dtype=np.int64))
        )

    # -- element access ---------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range [0, {self.n})")
        return int((self.words[i // WORD_BITS] >> np.uint64(i % WORD_BITS)) & np.uint64(1))

    def to_array(self) -> np.ndarray:
        """Unpacked 0/1 uint8 copy."""
        return unpack_bits(self.words, self.n)

    # -- rank / select ----------------------------------------------------

    def count(self) -> int:
        """Total number of set bits."""
        assert self._rank_index is not None
        return int(self._rank_index[-1])

    def rank1(self, p: int) -> int:
        """Ones in ``B[0:p]``; ``p`` ranges over ``[0, n]``."""
        if not 0 <= p <= self.n:
            raise IndexError(f"rank position {p} out of range [0, {self.n}]")
        assert self._rank_index is not None
        w, r = divmod(p, WORD_BITS)
        total = int(self._rank_index[w])
        if r:
            mask = np.uint64((1 << r) - 1)
            total += popcount_scalar(int(self.words[w] & mask))
        return total

    def rank0(self, p: int) -> int:
        """Zeros in ``B[0:p]``."""
        return p - self.rank1(p)

    def rank1_many(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank1` over an array of positions."""
        p = np.asarray(positions, dtype=np.int64)
        if p.size and (p.min() < 0 or p.max() > self.n):
            raise IndexError("rank position out of range")
        assert self._rank_index is not None
        w, r = np.divmod(p, WORD_BITS)
        totals = self._rank_index[w].astype(np.int64)
        # Partial-word contribution: mask low r bits then popcount.
        has_partial = r > 0
        if np.any(has_partial):
            words = self.words[w[has_partial]]
            masks = (np.uint64(1) << r[has_partial].astype(np.uint64)) - np.uint64(1)
            totals[has_partial] += popcount_u64(words & masks)
        return totals

    def select1(self, k: int) -> int:
        """Position of the ``k``-th set bit (1-based ``k``)."""
        if k < 1 or k > self.count():
            raise IndexError(f"select1 argument {k} out of range [1, {self.count()}]")
        assert self._rank_index is not None
        w = int(np.searchsorted(self._rank_index, k, side="left")) - 1
        remaining = k - int(self._rank_index[w])
        word = int(self.words[w])
        pos = w * WORD_BITS
        while True:
            if word & 1:
                remaining -= 1
                if remaining == 0:
                    return pos
            word >>= 1
            pos += 1

    def select0(self, k: int) -> int:
        """Position of the ``k``-th zero bit (1-based ``k``)."""
        zeros = self.n - self.count()
        if k < 1 or k > zeros:
            raise IndexError(f"select0 argument {k} out of range [1, {zeros}]")
        # Binary search on rank0 (monotone in p).
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.rank0(mid + 1) >= k:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # -- misc ---------------------------------------------------------------

    def size_in_bytes(self) -> int:
        """Memory footprint of the packed words plus the rank index."""
        total = self.words.nbytes
        if self._rank_index is not None:
            total += self._rank_index.nbytes
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.words, other.words))

    def __hash__(self):
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        preview = "".join(str(b) for b in self.to_array()[:32])
        ell = "..." if self.n > 32 else ""
        return f"BitVector(n={self.n}, bits={preview}{ell})"


def bits_from_sequence(seq: Sequence[int], predicate) -> BitVector:
    """Build a :class:`BitVector` by applying ``predicate`` elementwise."""
    arr = np.asarray(seq)
    return BitVector(predicate(arr).astype(np.uint8))
