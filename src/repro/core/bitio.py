"""Variable-width bit stream used by the RRR offset bit-vector.

The RRR *offset* array is a concatenation of fields whose widths differ
per block (``ceil(log2(C(b, class)))`` bits).  This module provides a
vectorized packer for construction and both scalar and vectorized readers
for queries.

Bit order matches the rest of :mod:`repro.core`: the stream is LSB-first
within 64-bit words, i.e. the first bit written is bit 0 of word 0, and a
field's least-significant bit is stored first.  A field of width ``w``
starting at bit position ``s`` therefore spans at most two words, which
the readers exploit (the FPGA kernel does the same two-BRAM-read trick).
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
_U64_ONE = np.uint64(1)


def pack_fields(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack ``values[i]`` into ``widths[i]`` bits each, concatenated.

    Returns ``(words, total_bits)``.  Zero-width fields contribute nothing
    (their value must be 0).  Fully vectorized: fields are exploded to a
    flat bit array once, then packed with ``np.packbits``.
    """
    values = np.asarray(values, dtype=np.uint64)
    widths = np.asarray(widths, dtype=np.int64)
    if values.shape != widths.shape:
        raise ValueError("values and widths must have the same shape")
    if widths.size and widths.min() < 0:
        raise ValueError("field widths must be non-negative")
    if np.any((widths == 0) & (values != 0)):
        raise ValueError("zero-width fields must carry value 0")
    wmax = int(widths.max()) if widths.size else 0
    if wmax > 63:
        raise ValueError("field widths above 63 bits are not supported")
    total_bits = int(widths.sum())
    if total_bits == 0:
        return np.zeros(0, dtype=np.uint64), 0
    # Explode each value into wmax bits then keep the first widths[i] of each.
    bit_idx = np.arange(wmax, dtype=np.uint64)
    bits = ((values[:, None] >> bit_idx[None, :]) & _U64_ONE).astype(np.uint8)
    keep = bit_idx[None, :] < widths[:, None].astype(np.uint64)
    flat = bits[keep]  # row-major: value 0's bits first, LSB-first
    n_words = (total_bits + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros(n_words * WORD_BITS, dtype=np.uint8)
    padded[:total_bits] = flat
    return np.packbits(padded, bitorder="little").view(np.uint64), total_bits


def read_field(words: np.ndarray, start_bit: int, width: int) -> int:
    """Read one field of ``width`` bits starting at ``start_bit``."""
    if width == 0:
        return 0
    if width > 63:
        raise ValueError("field widths above 63 bits are not supported")
    w, r = divmod(start_bit, WORD_BITS)
    lo = int(words[w]) >> r
    got = WORD_BITS - r
    if got < width:
        lo |= int(words[w + 1]) << got
    return lo & ((1 << width) - 1)


def read_fields(words: np.ndarray, start_bits: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Vectorized :func:`read_field` over many (start, width) pairs."""
    start_bits = np.asarray(start_bits, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    # Zero-width fields perform no memory access; point them at word 0 so
    # the gather below stays in bounds even when their nominal start sits
    # exactly at the end of the stream.
    w, r = np.divmod(np.where(widths > 0, start_bits, 0), WORD_BITS)
    # A plain view: gathers from a np.memmap would wrap every result in a
    # memmap object.
    words = np.asarray(words)
    n_words = words.size
    if n_words == 0:  # all-zero-width stream: every field reads 0
        return np.zeros(start_bits.shape, dtype=np.int64)
    r_u = r.astype(np.uint64)
    lo = words[w] >> r_u
    # The spill-over bits come from word w+1, shifted left by 64 - r (two
    # shifts, so r == 0 shifts everything out instead of overflowing).  A
    # field in the stream's last word has no w+1: the clamped gather
    # re-reads that word, whose shifted bits all lie above the field's
    # width and are masked off below — no padded copy of the stream.
    nxt = words[np.minimum(w + 1, n_words - 1)]
    hi = (nxt << (np.uint64(63) - r_u)) << _U64_ONE
    raw = lo | hi
    mask = np.where(
        widths > 0,
        (np.uint64(1) << widths.astype(np.uint64)) - _U64_ONE,
        np.uint64(0),
    )
    return (raw & mask).astype(np.int64)


class IncrementalBitPacker:
    """Streaming :func:`pack_fields`: append field batches, finalize once.

    The blockwise index builder encodes RRR offset streams chunk by chunk
    without holding every block's offset in memory at once.  Each
    :meth:`append` packs its batch with the vectorized :func:`pack_fields`
    and splices the resulting words onto the running stream at the
    current (generally unaligned) bit position, so ``finalize()`` returns
    *exactly* the words a single :func:`pack_fields` call over the
    concatenated inputs would produce — bit for bit, padding included.

    Memory held is O(packed-stream-so-far + one batch); nothing is
    re-shifted on later appends.
    """

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        #: Value of the trailing partial word (0 when bit-aligned).
        self._tail = np.uint64(0)
        self._bit_len = 0

    @property
    def bit_length(self) -> int:
        return self._bit_len

    def append(self, values: np.ndarray, widths: np.ndarray) -> None:
        """Pack one batch of fields onto the end of the stream."""
        w, nbits = pack_fields(values, widths)
        if nbits == 0:
            return
        r = self._bit_len & 63
        if r == 0:
            self._chunks.append(w)
            self._bit_len += nbits
            # pack_fields zero-pads its last word, so a later unaligned
            # append can OR into it; keep it as the tail when partial.
            if self._bit_len & 63:
                self._tail = w[-1]
                self._chunks[-1] = w[:-1]
            return
        ru = np.uint64(r)
        down = np.uint64(64 - r)
        n_out = (r + nbits + 63) // 64
        out = np.empty(n_out, dtype=np.uint64)
        out[: w.size] = w << ru
        out[0] |= self._tail
        if w.size > 1:
            out[1 : w.size] |= w[:-1] >> down
        if n_out == w.size + 1:
            out[-1] = w[-1] >> down
        self._bit_len += nbits
        if self._bit_len & 63:
            self._tail = out[-1]
            self._chunks.append(out[:-1])
        else:
            self._tail = np.uint64(0)
            self._chunks.append(out)

    def finalize(self) -> tuple[np.ndarray, int]:
        """The packed stream as ``(words, total_bits)``."""
        parts = list(self._chunks)
        if self._bit_len & 63:
            parts.append(np.array([self._tail], dtype=np.uint64))
        if not parts:
            return np.zeros(0, dtype=np.uint64), 0
        return np.concatenate(parts), self._bit_len


class BitWriter:
    """Incremental scalar writer (used by tests as the packing oracle)."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or (width < 64 and value >> width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for i in range(width):
            self._bits.append((value >> i) & 1)

    @property
    def bit_length(self) -> int:
        return len(self._bits)

    def to_words(self) -> tuple[np.ndarray, int]:
        n = len(self._bits)
        n_words = (n + WORD_BITS - 1) // WORD_BITS
        padded = np.zeros(n_words * WORD_BITS, dtype=np.uint8)
        padded[:n] = self._bits
        return np.packbits(padded, bitorder="little").view(np.uint64), n
