"""Interleaved header+body rank vectors (Waidyasooriya et al., paper §II).

The paper's related work [11] proposes an FPGA wavelet-tree structure
whose bit-vectors are stored as **codewords**: a *header* carrying "the
partial rank of the corresponding bit vector block" and a *body* holding
the block's raw bits — rank is one codeword fetch, one header read, and
one popcount, with no decoding.  The authors report ~5.5 % space overhead
over the raw data and O(1) rank, but no compression (the body is verbatim).

This module implements that design as a drop-in rank backend so the
structure ablation can compare the paper's RRR choice against its
closest published FPGA alternative:

* body: raw blocks of ``b`` bits (``b`` ≤ 63);
* header: the rank (ones count) up to the block's start, in a fixed
  ``header_bits`` field sized to the vector length;
* codewords are packed contiguously, so a rank query touches exactly one
  aligned codeword — the single-memory-fetch property that motivated the
  original design.

Space: ``N · (1 + header_bits / b)`` bits; with the authors' parameters
(large ``b`` relative to the header) the overhead approaches their 5.5 %.
No entropy compression — this is the trade against RRR.
"""

from __future__ import annotations

import numpy as np

from .bitio import pack_fields, read_field
from .bitvector import popcount_scalar
from .counters import UNCOUNTED, current_counters


class InterleavedRankVector:
    """Header+body codeword bit-vector with O(1) rank.

    Parameters
    ----------
    bits:
        0/1 array to encode.
    b:
        Body (block) size in bits, 1..63.  Queries are charged as
        table-free binary ranks.
    """

    __slots__ = ("n", "b", "header_bits", "codeword_bits", "words", "n_blocks",
                 "_total_ones")

    def __init__(self, bits, b: int = 32):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if bits.size and bits.max(initial=0) > 1:
            raise ValueError("bit values must be 0 or 1")
        if not 1 <= b <= 63:
            raise ValueError(f"body size b={b} outside [1, 63]")
        self.n = int(bits.size)
        self.b = int(b)
        # Header width: enough for the largest possible rank (= n).
        self.header_bits = max(1, int(self.n).bit_length())
        self.codeword_bits = self.header_bits + self.b
        n_blocks = (self.n + b - 1) // b
        self.n_blocks = n_blocks
        # Build: per block, header = cumulative ones before it, body = bits.
        padded = np.zeros(n_blocks * b, dtype=np.uint8)
        padded[: self.n] = bits
        blocks = padded.reshape(-1, b)
        weights = (np.uint64(1) << np.arange(b, dtype=np.uint64))
        bodies = (blocks.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)
        ones_per_block = blocks.sum(axis=1, dtype=np.int64)
        headers = np.concatenate(([0], np.cumsum(ones_per_block)))[:-1].astype(np.uint64)
        self._total_ones = int(ones_per_block.sum())
        # Interleave: header then body per codeword, all fixed width.
        values = np.empty(2 * n_blocks, dtype=np.uint64)
        values[0::2] = headers
        values[1::2] = bodies
        widths = np.empty(2 * n_blocks, dtype=np.int64)
        widths[0::2] = self.header_bits
        widths[1::2] = self.b
        self.words, _ = pack_fields(values, widths)

    def __len__(self) -> int:
        return self.n

    def count(self) -> int:
        return self._total_ones

    def rank1(self, p: int) -> int:
        """Ones in ``B[0:p]`` — one codeword fetch + popcount."""
        if not 0 <= p <= self.n:
            raise IndexError(f"rank position {p} out of range [0, {self.n}]")
        c = current_counters()
        c.binary_ranks += 1
        if p == self.n:
            return self._total_ones
        block, r = divmod(p, self.b)
        base = block * self.codeword_bits
        c.superblock_reads += 1  # the single codeword fetch
        header = read_field(self.words, base, self.header_bits)
        if r == 0:
            return header
        body = read_field(self.words, base + self.header_bits, self.b)
        return header + popcount_scalar(body & ((1 << r) - 1))

    def rank0(self, p: int) -> int:
        return p - self.rank1(p)

    def rank1_many(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized rank via per-position field reads."""
        from .bitio import read_fields

        p = np.asarray(positions, dtype=np.int64)
        if p.size == 0:
            return np.zeros(0, dtype=np.int64)
        if p.min() < 0 or p.max() > self.n:
            raise IndexError("rank position out of range")
        c = current_counters()
        if c is not UNCOUNTED:
            c.binary_ranks += int(p.size)
            c.superblock_reads += int(p.size)
        block, r = np.divmod(np.minimum(p, self.n - 1 if self.n else 0), self.b)
        # Positions p == n need the total; handle via mask at the end.
        base = block * self.codeword_bits
        headers = read_fields(
            self.words, base, np.full(p.size, self.header_bits, dtype=np.int64)
        )
        bodies = read_fields(
            self.words,
            base + self.header_bits,
            np.full(p.size, self.b, dtype=np.int64),
        )
        # popcount of the low-r body bits.
        masks = np.where(
            r > 0,
            (np.uint64(1) << r.astype(np.uint64)) - np.uint64(1),
            np.uint64(0),
        )
        from .bitvector import popcount_u64

        partial = popcount_u64(bodies.astype(np.uint64) & masks)
        out = headers + partial
        # Recompute exact values for p==n and for positions whose block/r
        # got clamped above.
        at_end = p == self.n
        if np.any(at_end):
            out[at_end] = self._total_ones
        # Non-end positions used true block/r only if p < n; the clamp
        # only altered p == n entries, which we just overwrote.
        return out.astype(np.int64)

    def access(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range [0, {self.n})")
        block, r = divmod(i, self.b)
        body = read_field(
            self.words, block * self.codeword_bits + self.header_bits, self.b
        )
        return (body >> r) & 1

    def select1(self, k: int) -> int:
        """Binary search on the monotone headers, then scan one block."""
        if k < 1 or k > self._total_ones:
            raise IndexError(f"select1 argument {k} out of range [1, {self._total_ones}]")
        lo, hi = 0, self.n_blocks - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            header = read_field(self.words, mid * self.codeword_bits, self.header_bits)
            if header < k:
                lo = mid
            else:
                hi = mid - 1
        base = lo * self.codeword_bits
        remaining = k - read_field(self.words, base, self.header_bits)
        body = read_field(self.words, base + self.header_bits, self.b)
        for j in range(self.b):
            if body >> j & 1:
                remaining -= 1
                if remaining == 0:
                    return lo * self.b + j
        raise AssertionError("select walked past its block")  # pragma: no cover

    def select0(self, k: int) -> int:
        zeros = self.n - self._total_ones
        if k < 1 or k > zeros:
            raise IndexError(f"select0 argument {k} out of range [1, {zeros}]")
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.rank0(mid + 1) >= k:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def size_in_bytes(self) -> int:
        return int(self.words.nbytes)

    def overhead_fraction(self) -> float:
        """Space overhead vs the raw bits: ``header_bits / b``.

        The original paper reports ~5.5 % for its memory-model-tuned
        parameters; the ratio here is exact for ours.
        """
        return self.header_bits / self.b

    def __repr__(self) -> str:
        return (
            f"InterleavedRankVector(n={self.n}, b={self.b}, "
            f"header={self.header_bits}b, bytes={self.size_in_bytes()})"
        )


def interleaved_factory(b: int = 32):
    """Wavelet-node factory for the ablation bench."""

    def make(bits: np.ndarray) -> InterleavedRankVector:
        return InterleavedRankVector(bits, b=b)

    return make
