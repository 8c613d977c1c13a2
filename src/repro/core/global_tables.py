"""Shared Global Rank Table and combinadic machinery for RRR blocks.

The RRR structure of Raman, Raman and Rao stores each ``b``-bit block as a
``(class, offset)`` pair, where *class* is the block's popcount and
*offset* identifies the block among all blocks of that class.  BWaveR's
concrete layout (paper §III-B, Fig. 3) materializes:

* a **permutations array** ``P`` — every possible ``b``-bit block as a
  16-bit integer, sorted by class and then in ascending numeric order
  (the "Global Rank Table");
* a **class offsets array** — for each class ``c``, the index of the first
  element of that class inside ``P``.

Both arrays depend only on ``b``, so the paper shares a single copy among
*all* wavelet-tree nodes ("the permutations array and class offsets array
are stored only once") — that sharing is exactly what
:func:`get_global_tables` provides through a process-wide cache, and what
``benchmarks/bench_ablation_sharing.py`` ablates.

Blocks are numbered LSB-first: bit ``i`` of the block integer is the
``i``-th bit of the vector slice it encodes, matching
:mod:`repro.core.bitvector`.  "Ascending order" within a class is plain
integer order of those LSB-first values; any fixed order works as long as
encode and decode agree, and integer order admits a closed-form combinadic
rank, used for the vectorized encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitvector import _POP16, popcount_scalar

#: Largest block size for which the permutation table is materialized.
#: ``b = 16`` gives a 65536-entry uint16 table (128 KiB); beyond that the
#: combinadic fallback decodes blocks arithmetically.
MAX_TABLE_B = 16

#: Largest supported block size overall.  The paper's hardware fixes
#: ``b = 15``; the structure itself is parametrizable and we allow some
#: headroom for the parameter-sweep experiments.
MAX_B = 24


def binomial_table(b: int) -> np.ndarray:
    """Pascal's triangle ``C[n, k]`` for ``0 <= n, k <= b`` as int64.

    Entries with ``k > n`` are zero.  ``C(b, b//2)`` for ``b <= 24`` fits
    comfortably in int64.
    """
    C = np.zeros((b + 1, b + 1), dtype=np.int64)
    C[:, 0] = 1
    for n in range(1, b + 1):
        C[n, 1 : n + 1] = C[n - 1, : n] + C[n - 1, 1 : n + 1]
    return C


def offset_width(b: int, c: int, C: np.ndarray | None = None) -> int:
    """Bits needed for a class-``c`` offset: ``ceil(log2(C(b, c)))``.

    Classes with a single member (``c == 0`` or ``c == b``) need zero bits.
    """
    if C is None:
        C = binomial_table(b)
    count = int(C[b, c])
    if count <= 1:
        return 0
    return int(count - 1).bit_length()


def offset_widths(b: int, C: np.ndarray | None = None) -> np.ndarray:
    """``offset_width(b, c)`` for every class ``c`` in ``[0, b]``."""
    if C is None:
        C = binomial_table(b)
    return np.array([offset_width(b, c, C) for c in range(b + 1)], dtype=np.int64)


def encode_offset(value: int, b: int, C: np.ndarray | None = None) -> int:
    """Combinadic rank: how many same-class ``b``-bit values are ``< value``.

    Scalar reference implementation; the vectorized counterpart is
    :func:`encode_offsets`.
    """
    if not 0 <= value < (1 << b):
        raise ValueError(f"value {value} does not fit in {b} bits")
    if C is None:
        C = binomial_table(b)
    k = popcount_scalar(value)
    offset = 0
    for p in range(b - 1, -1, -1):
        if value >> p & 1:
            # Values agreeing above bit p but with 0 here are all smaller;
            # they place the remaining k ones among the p lower positions.
            offset += int(C[p, k]) if k <= p else 0
            k -= 1
    return offset


def decode_offset(c: int, offset: int, b: int, C: np.ndarray | None = None) -> int:
    """Inverse of :func:`encode_offset`: the ``offset``-th class-``c`` value."""
    if C is None:
        C = binomial_table(b)
    if not 0 <= c <= b:
        raise ValueError(f"class {c} out of range [0, {b}]")
    if not 0 <= offset < int(C[b, c]):
        raise ValueError(f"offset {offset} out of range for class {c} (b={b})")
    value = 0
    k = c
    for p in range(b - 1, -1, -1):
        below = int(C[p, k]) if k <= p else 0
        if offset >= below:
            value |= 1 << p
            offset -= below
            k -= 1
    return value


def encode_offsets(values: np.ndarray, b: int, C: np.ndarray | None = None) -> np.ndarray:
    """Vectorized combinadic rank of many block values at once.

    This is the hot path of RRR construction: the whole BWT is blocked and
    every block's offset is computed here with ``b`` numpy passes instead
    of a Python loop per block.
    """
    if C is None:
        C = binomial_table(b)
    v = np.asarray(values, dtype=np.int64)
    if v.size and (v.min() < 0 or v.max() >= (1 << b)):
        raise ValueError(f"block values must fit in {b} bits")
    # k starts at the popcount of each value and decreases as set bits are
    # consumed from the MSB side.
    k = popcount_block(v, b).astype(np.int64)
    offsets = np.zeros_like(v)
    # Extend the binomial table with a guard row of zeros so C[p, k] with
    # k > p indexes cleanly to zero.
    Cg = np.zeros((b + 1, b + 2), dtype=np.int64)
    Cg[:, : b + 1] = C
    for p in range(b - 1, -1, -1):
        bit = (v >> p) & 1
        contrib = Cg[p, np.minimum(k, b + 1)]
        offsets += bit * np.where(k <= p, contrib, 0)
        k -= bit
    return offsets


def decode_offsets(
    classes: np.ndarray, offsets: np.ndarray, b: int, C: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized :func:`decode_offset`: block values of many
    ``(class, offset)`` pairs, ``b`` numpy passes for the whole batch.

    The decoder of block sizes without a materialized permutation table.
    """
    if C is None:
        C = binomial_table(b)
    k = np.asarray(classes, dtype=np.int64).copy()
    off = np.asarray(offsets, dtype=np.int64).copy()
    values = np.zeros_like(off)
    # Guard column of zeros: C[p, k] with k > p reads 0 (take the bit).
    Cg = np.zeros((b + 1, b + 2), dtype=np.int64)
    Cg[:, : b + 1] = C
    for p in range(b - 1, -1, -1):
        below = np.where(k <= p, Cg[p, np.minimum(k, b + 1)], 0)
        bit = off >= below
        values |= bit.astype(np.int64) << p
        off -= np.where(bit, below, 0)
        k -= bit
    return values


def popcount_block(values: np.ndarray, b: int) -> np.ndarray:
    """Popcount of block values known to fit in ``b <= 24`` bits."""
    v = np.asarray(values, dtype=np.int64)
    low = _POP16[v & 0xFFFF]
    if b <= 16:
        return low.astype(np.int64)
    high = _POP16[(v >> 16) & 0xFFFF]
    return (low.astype(np.int64) + high.astype(np.int64))


@dataclass(frozen=True)
class GlobalRankTables:
    """The per-``b`` shared tables of the BWaveR RRR layout.

    Attributes
    ----------
    b:
        Block size in bits.
    binomials:
        Pascal's triangle up to ``b``.
    widths:
        ``widths[c]`` — offset field width in bits for class ``c``.
    class_offsets:
        ``class_offsets[c]`` — index in :attr:`permutations` of the first
        block of class ``c`` (length ``b + 2``; the final entry is the
        total ``2**b`` so slices are uniform).
    permutations:
        The Global Rank Table ``P``: all ``2**b`` block values sorted by
        class then ascending, as uint16 (present only for
        ``b <= MAX_TABLE_B``, else ``None`` and decoding falls back to
        combinadics).
    block_rank:
        ``block_rank[value, p]`` — ones among the low ``p`` bits of
        ``value`` (present only when the permutation table is present;
        this is the table the FPGA kernel reads to finish a rank inside a
        block in one cycle).
    offsets:
        ``offsets[value]`` — the block's offset within its class, the
        inverse of :attr:`permutations` (present with it): the encoder's
        one-gather replacement for :func:`encode_offsets`.
    """

    b: int
    binomials: np.ndarray
    widths: np.ndarray
    class_offsets: np.ndarray
    permutations: np.ndarray | None
    block_rank: np.ndarray | None
    offsets: np.ndarray | None

    def decode_block(self, c: int, offset: int) -> int:
        """Block value for ``(class, offset)`` via table or combinadics."""
        if self.permutations is not None:
            return int(self.permutations[int(self.class_offsets[c]) + offset])
        return decode_offset(c, offset, self.b, self.binomials)

    def rank_in_block(self, value: int, p: int) -> int:
        """Ones among the low ``p`` bits of a block value."""
        if self.block_rank is not None:
            return int(self.block_rank[value, p])
        return popcount_scalar(value & ((1 << p) - 1))

    def size_in_bytes(self, include_block_rank: bool = False) -> int:
        """Space of the shared tables (the ``2^{b+1} + 4b`` terms of the
        paper's size formula, measured on the real arrays)."""
        total = self.class_offsets.nbytes + self.widths.nbytes
        if self.permutations is not None:
            total += self.permutations.nbytes
        if include_block_rank and self.block_rank is not None:
            total += self.block_rank.nbytes
        return total


def _build_tables(b: int) -> GlobalRankTables:
    if not 1 <= b <= MAX_B:
        raise ValueError(f"block size b={b} outside supported range [1, {MAX_B}]")
    C = binomial_table(b)
    widths = offset_widths(b, C)
    # class_offsets[c] = sum of C(b, c') for c' < c
    counts = C[b, : b + 1]
    class_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    permutations: np.ndarray | None = None
    block_rank: np.ndarray | None = None
    offsets: np.ndarray | None = None
    if b <= MAX_TABLE_B:
        values = np.arange(1 << b, dtype=np.int64)
        classes = popcount_block(values, b)
        # Stable sort by class keeps ascending numeric order within class.
        order = np.argsort(classes, kind="stable")
        permutations = order.astype(np.uint16)
        # Ascending order within a class is the combinadic order, so a
        # value's offset is its index in P minus its class's first index.
        offsets = np.empty(1 << b, dtype=np.uint16)
        offsets[order] = values - class_offsets[classes[order]]
        # block_rank[value, p] = popcount(value & ((1 << p) - 1))
        bits = ((values[:, None] >> np.arange(b)[None, :]) & 1).astype(np.int64)
        block_rank = np.concatenate(
            [np.zeros((1 << b, 1), dtype=np.int64), np.cumsum(bits, axis=1)],
            axis=1,
        ).astype(np.uint8)
    return GlobalRankTables(
        b=b,
        binomials=C,
        widths=widths,
        class_offsets=class_offsets,
        permutations=permutations,
        block_rank=block_rank,
        offsets=offsets,
    )


@lru_cache(maxsize=None)
def get_global_tables(b: int) -> GlobalRankTables:
    """Process-wide shared tables for block size ``b`` (paper's sharing)."""
    return _build_tables(b)


def build_private_tables(b: int) -> GlobalRankTables:
    """A non-shared copy, used only by the sharing ablation bench."""
    return _build_tables(b)
