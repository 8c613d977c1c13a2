"""RRR-encoded bit-vectors: the core succinct structure of BWaveR.

This implements the paper's Fig. 3 layout and Algorithm 1 exactly:

* the bit-vector is split into blocks of ``b`` bits, grouped into
  superblocks of ``sf`` blocks (``sf`` = superblock factor);
* per block, a **class** (popcount, 4-bit fields in the paper's
  accounting) and a variable-width **offset** into the Global Rank Table;
* per superblock, a 32-bit **partial sum** of ones up to its left
  boundary and an **offset sum** — the bit position, inside the packed
  offset stream, of the first block's offset field;
* the Global Rank Table (permutations + class offsets) is *shared* across
  all RRR instances with the same ``b`` (see
  :mod:`repro.core.global_tables`), which is what makes the per-node cost
  of a wavelet tree small.

``rank1(p)`` runs in ``O(sf)``: one partial-sum read, at most ``sf - 1``
class additions, one offset-stream read and one table lookup — precisely
the paper's Algorithm 1 including its two early-exit branches (``p`` on a
superblock boundary, ``p`` on a block boundary).

The original bit-vector is *not* stored (the paper's Fig. 3 shows it "only
for the sake of clarity"); every query is answered from the succinct
arrays, and :meth:`RRRVector.to_bitvector` reconstructs it purely from
classes and offsets, which the tests use to prove the encoding is lossless.
"""

from __future__ import annotations

import math

import numpy as np

from .bitio import pack_fields, read_field, read_fields
from .bitvector import BitVector
from .counters import UNCOUNTED, current_counters
from .global_tables import (
    GlobalRankTables,
    encode_offsets,
    get_global_tables,
    popcount_block,
)

#: The paper's hardware fixes this block size (§III-C).
DEFAULT_BLOCK_SIZE = 15
#: The paper allows any superblock factor >= 50 in hardware and uses 50
#: for the Table I/II runs.
DEFAULT_SUPERBLOCK_FACTOR = 50


class RRRVector:
    """Succinct bit-vector supporting :math:`O(sf)` binary rank.

    Parameters
    ----------
    bits:
        The bits to encode — a 0/1 array, a :class:`BitVector`, or packed
        words via :meth:`from_bitvector`.
    b:
        Block size in bits (``1..24``; the paper's hardware uses 15).
    sf:
        Superblock factor — blocks per superblock (the paper's hardware
        accepts ``sf >= 50``; smaller values are allowed here for the
        parameter sweeps of Figs. 5-7).
    tables:
        Optional pre-built :class:`GlobalRankTables`; defaults to the
        process-wide shared instance for ``b`` (the paper's sharing).
    """

    __slots__ = (
        "n",
        "b",
        "sf",
        "n_blocks",
        "n_superblocks",
        "classes",
        "partial_sums",
        "offset_words",
        "offset_bits",
        "offset_sums",
        "tables",
        "_class_cum",
        "_offset_cum",
    )

    def __init__(
        self,
        bits,
        b: int = DEFAULT_BLOCK_SIZE,
        sf: int = DEFAULT_SUPERBLOCK_FACTOR,
        tables: GlobalRankTables | None = None,
    ):
        if sf < 1:
            raise ValueError(f"superblock factor must be >= 1, got {sf}")
        if isinstance(bits, BitVector):
            bit_arr = bits.to_array()
        else:
            bit_arr = np.asarray(bits, dtype=np.uint8)
            if bit_arr.size and bit_arr.max(initial=0) > 1:
                raise ValueError("bit values must be 0 or 1")
        self.tables = tables if tables is not None else get_global_tables(b)
        if self.tables.b != b:
            raise ValueError(f"tables built for b={self.tables.b}, requested b={b}")
        self.n = int(bit_arr.size)
        self.b = int(b)
        self.sf = int(sf)
        self._build(bit_arr)
        self._class_cum: np.ndarray | None = None
        self._offset_cum: np.ndarray | None = None

    # -- construction (fully vectorized) -----------------------------------

    def _build(self, bit_arr: np.ndarray) -> None:
        b, sf = self.b, self.sf
        n_blocks = (self.n + b - 1) // b
        n_super = (n_blocks + sf - 1) // sf
        # Pad to a whole number of superblocks of bits; padding bits are 0
        # so they never contribute to any class or partial sum.
        padded_len = max(n_super, 1) * sf * b
        padded = np.zeros(padded_len, dtype=np.uint8)
        padded[: self.n] = bit_arr
        block_bits = padded.reshape(-1, b)
        # Block value, LSB-first: bit j of the block is bit j of the value.
        weights = (np.int64(1) << np.arange(b, dtype=np.int64))
        values_all = block_bits.astype(np.int64) @ weights
        values = values_all[:n_blocks] if n_blocks else values_all[:0]
        classes = popcount_block(values, b)
        if np.any(classes > b):  # pragma: no cover - internal invariant
            raise AssertionError("block class exceeded block size")
        self.n_blocks = n_blocks
        self.n_superblocks = n_super
        self.classes = classes.astype(np.uint8)
        # Partial sums: ones strictly before each superblock's first bit.
        # One extra entry (the grand total) serves rank queries at p == n
        # when n falls exactly on a superblock boundary.
        cls_cum = np.concatenate(([0], np.cumsum(classes, dtype=np.int64)))
        boundaries = np.minimum(np.arange(n_super + 1) * sf, n_blocks)
        psums = cls_cum[boundaries]
        if psums.size and psums.max(initial=0) > np.iinfo(np.uint32).max:
            raise ValueError("bit-vector too long for 32-bit partial sums")
        self.partial_sums = psums.astype(np.uint32)
        # Offsets: combinadic rank of each block value within its class.
        offsets = encode_offsets(values, b, self.tables.binomials)
        widths = self.tables.widths[classes]
        self.offset_words, self.offset_bits = pack_fields(
            offsets.astype(np.uint64), widths
        )
        # Offset sums: bit position of each superblock's first offset field.
        width_cum = np.concatenate(([0], np.cumsum(widths)))
        self.offset_sums = width_cum[boundaries[:-1]].astype(np.uint32)

    @classmethod
    def from_bitvector(
        cls,
        bv: BitVector,
        b: int = DEFAULT_BLOCK_SIZE,
        sf: int = DEFAULT_SUPERBLOCK_FACTOR,
        tables: GlobalRankTables | None = None,
    ) -> "RRRVector":
        return cls(bv, b=b, sf=sf, tables=tables)

    # -- zero-copy rehydration ----------------------------------------------

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The encoded structure as (metadata, named arrays).

        The arrays are the instance's own buffers, not copies; together
        with the metadata they are sufficient to rebuild the vector with
        :meth:`from_arrays` without touching the original bits.  The
        shared Global Rank Table is *not* exported — it is derived from
        ``b`` alone and rebuilt (once per process) on attach, matching
        the paper's per-process sharing.
        """
        meta = {
            "n": self.n,
            "b": self.b,
            "sf": self.sf,
            "n_blocks": self.n_blocks,
            "n_superblocks": self.n_superblocks,
            "offset_bits": self.offset_bits,
        }
        arrays = {
            "classes": self.classes,
            "partial_sums": self.partial_sums,
            "offset_words": self.offset_words,
            "offset_sums": self.offset_sums,
        }
        return meta, arrays

    @classmethod
    def from_arrays(
        cls,
        meta: dict,
        arrays: dict[str, np.ndarray],
        tables: GlobalRankTables | None = None,
    ) -> "RRRVector":
        """Rehydrate around externally owned buffers **without copying**.

        ``arrays`` values may be slices of an ``np.memmap`` or of a
        ``multiprocessing.shared_memory`` buffer; they are adopted as-is,
        so N processes attaching to the same physical pages share one
        copy of the structure.  Queries never write to these arrays.
        """
        self = cls.__new__(cls)
        self.n = int(meta["n"])
        self.b = int(meta["b"])
        self.sf = int(meta["sf"])
        self.n_blocks = int(meta["n_blocks"])
        self.n_superblocks = int(meta["n_superblocks"])
        self.offset_bits = int(meta["offset_bits"])
        self.tables = tables if tables is not None else get_global_tables(self.b)
        if self.tables.b != self.b:
            raise ValueError(
                f"tables built for b={self.tables.b}, structure has b={self.b}"
            )
        self.classes = arrays["classes"]
        self.partial_sums = arrays["partial_sums"]
        self.offset_words = arrays["offset_words"]
        self.offset_sums = arrays["offset_sums"]
        self._class_cum = None
        self._offset_cum = None
        return self

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def count(self) -> int:
        """Total ones (O(n/b), used by construction-time consumers only)."""
        return int(self.classes.sum(dtype=np.int64))

    def rank1(self, p: int) -> int:
        """Ones in ``B[0:p]`` — the paper's Algorithm 1.

        ``p`` is half-open (counts bits strictly before ``p``), matching
        the paper's closed ``B[1, p]`` under 1-based indexing.
        """
        if not 0 <= p <= self.n:
            raise IndexError(f"rank position {p} out of range [0, {self.n}]")
        b, sf = self.b, self.sf
        c = current_counters()
        c.binary_ranks += 1
        sb = p // (sf * b)
        if p % (sf * b) == 0:
            # Branch 1: superblock boundary — one memory read.
            if p == 0:
                return 0
            c.superblock_reads += 1
            return int(self.partial_sums[sb])
        c.superblock_reads += 1
        count = int(self.partial_sums[sb])
        block = p // b
        first = sf * sb
        if p % b == 0:
            # Branch 2: block boundary — partial sum + class sums.
            span = block - first
            c.class_sum_iterations += span
            count += int(self.classes[first:block].sum(dtype=np.int64))
            return count
        # Branch 3: general case — also walk the offset stream.
        c.superblock_reads += 1  # offset_sums read
        opos = int(self.offset_sums[sb])
        widths = self.tables.widths
        span = block - first
        c.class_sum_iterations += span
        if span:
            cls_slice = self.classes[first:block]
            count += int(cls_slice.sum(dtype=np.int64))
            opos += int(widths[cls_slice].sum(dtype=np.int64))
        blk_class = int(self.classes[block])
        width = int(widths[blk_class])
        c.offset_reads += 1
        off = read_field(self.offset_words, opos, width)
        c.table_lookups += 1
        value = self.tables.decode_block(blk_class, off)
        count += self.tables.rank_in_block(value, p % b)
        return count

    def rank0(self, p: int) -> int:
        """Zeros in ``B[0:p]``."""
        return p - self.rank1(p)

    def access(self, i: int) -> int:
        """Bit at position ``i``, decoded from (class, offset)."""
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range [0, {self.n})")
        block, r = divmod(i, self.b)
        blk_class = int(self.classes[block])
        width = int(self.tables.widths[blk_class])
        opos = self._offset_position(block)
        off = read_field(self.offset_words, opos, width)
        value = self.tables.decode_block(blk_class, off)
        return (value >> r) & 1

    def _offset_position(self, block: int) -> int:
        """Bit position of ``block``'s offset field in the offset stream."""
        sb = block // self.sf
        opos = int(self.offset_sums[sb])
        first = sb * self.sf
        if block > first:
            cls_slice = self.classes[first:block]
            opos += int(self.tables.widths[cls_slice].sum(dtype=np.int64))
        return opos

    # -- batch (vectorized) queries ------------------------------------------

    def build_batch_cache(self) -> None:
        """Precompute prefix sums enabling O(1) vectorized batch ranks.

        The cache is *scratch* memory for the software batch mapper and the
        test oracle — it is excluded from :meth:`size_in_bytes` because the
        hardware design never materializes it (the FPGA walks classes
        sequentially, which the counters model instead).
        """
        cls64 = self.classes.astype(np.int64)
        self._class_cum = np.concatenate(([0], np.cumsum(cls64)))
        w = self.tables.widths[self.classes]
        self._offset_cum = np.concatenate(([0], np.cumsum(w)))

    def drop_batch_cache(self) -> None:
        self._class_cum = None
        self._offset_cum = None

    def rank1_many(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized rank over an array of positions.

        Builds the prefix-array batch cache lazily on first use and
        memoizes it on the instance (rebuilding it per call dominated
        batch rank cost before).  Results are bit-identical to
        :meth:`rank1`.
        """
        p = np.asarray(positions, dtype=np.int64)
        if p.size == 0:
            return np.zeros(0, dtype=np.int64)
        if p.min() < 0 or p.max() > self.n:
            raise IndexError("rank position out of range")
        if self._class_cum is None or self._offset_cum is None:
            self.build_batch_cache()
        class_cum, offset_cum = self._class_cum, self._offset_cum
        assert class_cum is not None and offset_cum is not None
        b = self.b
        block, r = np.divmod(p, b)
        block_c = np.minimum(block, self.n_blocks)  # p == n on block edge
        counts = class_cum[block_c]
        partial = r > 0
        c = current_counters()
        if c is not UNCOUNTED:
            # Charge exactly as the scalar Algorithm 1 would: one binary
            # rank per query; a partial-sum read for p > 0 plus an
            # offset-sum read on the general branch; class-sum iterations
            # spanning from the superblock start to the query's block.
            n_partial = int(np.count_nonzero(partial))
            c.binary_ranks += int(p.size)
            c.superblock_reads += int(np.count_nonzero(p > 0)) + n_partial
            c.offset_reads += n_partial
            c.table_lookups += n_partial
            sfb = self.sf * b
            c.class_sum_iterations += int((block - self.sf * (p // sfb)).sum())
        if np.any(partial):
            blocks_p = block[partial]
            classes_p = self.classes[blocks_p].astype(np.int64)
            widths_p = self.tables.widths[classes_p]
            starts = offset_cum[blocks_p]
            offs = read_fields(self.offset_words, starts, widths_p)
            if self.tables.block_rank is not None:
                values = self.tables.permutations[
                    self.tables.class_offsets[classes_p] + offs
                ].astype(np.int64)
                inblock = self.tables.block_rank[values, r[partial]].astype(np.int64)
            else:
                inblock = np.array(
                    [
                        self.tables.rank_in_block(
                            self.tables.decode_block(int(c_), int(o_)), int(rr)
                        )
                        for c_, o_, rr in zip(classes_p, offs, r[partial])
                    ],
                    dtype=np.int64,
                )
            counts = counts.copy()
            counts[partial] += inblock
        return counts.astype(np.int64)

    # -- select ------------------------------------------------------------------

    def select1(self, k: int) -> int:
        """Position of the ``k``-th set bit (1-based ``k``).

        Three-stage search mirroring the rank layout: binary search the
        superblock partial sums, scan classes within the superblock, then
        decode the one block containing the target.  O(log(n/(sf·b)) + sf)
        — the same O(sf) flavor as rank, completing the succinct API
        (rank/select/access) the wavelet tree's select relies on.
        """
        total = self.count()
        if k < 1 or k > total:
            raise IndexError(f"select1 argument {k} out of range [1, {total}]")
        # Superblock: last boundary with partial_sum < k.
        sb = int(np.searchsorted(self.partial_sums, k, side="left")) - 1
        sb = max(sb, 0)
        remaining = k - int(self.partial_sums[sb])
        # Class scan inside the superblock.
        block = sb * self.sf
        last = min(block + self.sf, self.n_blocks)
        while block < last:
            c = int(self.classes[block])
            if remaining <= c:
                break
            remaining -= c
            block += 1
        # Decode the block and walk its bits.
        blk_class = int(self.classes[block])
        width = int(self.tables.widths[blk_class])
        opos = self._offset_position(block)
        off = read_field(self.offset_words, opos, width)
        value = self.tables.decode_block(blk_class, off)
        for j in range(self.b):
            if value >> j & 1:
                remaining -= 1
                if remaining == 0:
                    return block * self.b + j
        raise AssertionError("select walked past its block")  # pragma: no cover

    def select0(self, k: int) -> int:
        """Position of the ``k``-th zero bit (1-based), via binary search
        on the monotone ``rank0``."""
        zeros = self.n - self.count()
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

    # -- reconstruction & size ------------------------------------------------

    def to_bitvector(self) -> BitVector:
        """Decode the full bit-vector from classes + offsets (losslessness)."""
        if self.n == 0:
            return BitVector(np.zeros(0, dtype=np.uint8))
        widths = self.tables.widths[self.classes]
        starts = np.concatenate(([0], np.cumsum(widths)))[:-1]
        offs = read_fields(self.offset_words, starts, widths)
        bits = np.zeros(self.n_blocks * self.b, dtype=np.uint8)
        for i in range(self.n_blocks):
            value = self.tables.decode_block(int(self.classes[i]), int(offs[i]))
            for j in range(self.b):
                bits[i * self.b + j] = (value >> j) & 1
        return BitVector(bits[: self.n])

    def size_in_bytes(self, include_shared: bool = False) -> int:
        """Measured footprint of the instance's own arrays.

        Classes are counted at the paper's 4 bits per block when ``b <= 15``
        (our uint8 array is an addressing convenience; the information
        content — and the hardware layout — is 4-bit).  Set
        ``include_shared`` to add the per-``b`` Global Rank Table, which the
        paper counts once per process, not per structure.
        """
        class_bits = 4 if self.b <= 15 else max(4, (self.b).bit_length())
        total = (self.n_blocks * class_bits + 7) // 8
        total += self.partial_sums.nbytes
        total += self.offset_sums.nbytes
        total += (self.offset_bits + 7) // 8
        total += 12  # n, b, sf metadata (three 32-bit words)
        if include_shared:
            total += self.tables.size_in_bytes()
        return total

    def paper_size_bytes(self) -> float:
        """The paper's closed-form §III-B size, for cross-checking:

        ``(sf + 16) * N / (2 * sf * b) + 2^(b+1) + 4b + 7 + lambda/8``.
        """
        n, b, sf = self.n, self.b, self.sf
        lam = float(self.offset_bits)
        return (sf + 16) * n / (2 * sf * b) + 2 ** (b + 1) + 4 * b + 7 + lam / 8

    def zero_order_entropy(self) -> float:
        """Empirical H0 of the encoded bits, in bits per bit."""
        if self.n == 0:
            return 0.0
        ones = self.count()
        p1 = ones / self.n
        if p1 in (0.0, 1.0):
            return 0.0
        return -(p1 * math.log2(p1) + (1 - p1) * math.log2(1 - p1))

    def __repr__(self) -> str:
        return (
            f"RRRVector(n={self.n}, b={self.b}, sf={self.sf}, "
            f"bytes={self.size_in_bytes()})"
        )
