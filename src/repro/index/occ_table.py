"""Checkpointed occurrence table: the classic FM-index backend.

This is the "re-sampling of the index data" approach the paper contrasts
with succinct structures (§I): BWA and Bowtie2 keep the BWT itself in
2-bit packed form plus absolute symbol counts sampled every ``d`` rows;
``Occ(a, i)`` reads the nearest checkpoint at or below ``i`` and scans the
few packed words in between with bit tricks.

It implements the same backend protocol as
:class:`repro.core.bwt_structure.BWTStructure` (``occ``, ``occ_many``,
``count_smaller``, ``access``, ``lf``, ``n_rows``, ``size_in_bytes``), so
the FM-index, the mapper, and the Bowtie2-like baseline can swap backends
freely — which is exactly what the structure ablation measures.

Packing: 32 bases per 64-bit word, base ``j`` of a word in bits
``2j .. 2j+1`` (LSB-first, consistent with :mod:`repro.core.bitvector`).
Counting a symbol inside a word is three boolean ops and a popcount:
XOR with the symbol pattern turns matches into ``00`` pairs, and
``~y & (~y >> 1) & 0x5555...`` leaves one set bit per match.
"""

from __future__ import annotations

import numpy as np

from ..core.bitvector import popcount_u64
from ..core.counters import UNCOUNTED, current_counters
from ..sequence.bwt import BWT, count_array

SIGMA = 4
BASES_PER_WORD = 32
_LOW_PAIR_MASK = np.uint64(0x5555555555555555)
#: Per-symbol XOR patterns: symbol code repeated in every 2-bit lane.
_SYMBOL_PATTERNS = np.array(
    [int(f"{c:02b}" * 32, 2) for c in range(SIGMA)], dtype=np.uint64
)


def pack_2bit(codes: np.ndarray) -> np.ndarray:
    """Pack 2-bit codes into uint64 words, 32 bases per word."""
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    n_words = (n + BASES_PER_WORD - 1) // BASES_PER_WORD
    padded = np.zeros(n_words * BASES_PER_WORD, dtype=np.uint64)
    padded[:n] = codes
    lanes = padded.reshape(-1, BASES_PER_WORD)
    shifts = (2 * np.arange(BASES_PER_WORD, dtype=np.uint64))[None, :]
    return (lanes << shifts).sum(axis=1, dtype=np.uint64) if n_words else np.zeros(0, dtype=np.uint64)


def unpack_2bit(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_2bit`."""
    words = np.asarray(words, dtype=np.uint64)
    shifts = (2 * np.arange(BASES_PER_WORD, dtype=np.uint64))[None, :]
    lanes = (words[:, None] >> shifts) & np.uint64(3)
    return lanes.reshape(-1)[:n].astype(np.uint8)


def count_symbol_prefix(word: np.uint64, symbol: int, upto: int) -> int:
    """Occurrences of ``symbol`` among the first ``upto`` bases of a word."""
    if upto == 0:
        return 0
    y = np.uint64(word) ^ _SYMBOL_PATTERNS[symbol]
    ny = ~y
    hits = ny & (ny >> np.uint64(1)) & _LOW_PAIR_MASK
    if upto < BASES_PER_WORD:
        hits &= (np.uint64(1) << np.uint64(2 * upto)) - np.uint64(1)
    return int(popcount_u64(np.array([hits]))[0])


class OccTable:
    """BWA/Bowtie-style FM-index backend with ``d``-row checkpoints.

    Parameters
    ----------
    bwt:
        The transformed reference.
    checkpoint_words:
        Checkpoint spacing in 64-bit words; the row spacing is
        ``32 * checkpoint_words`` (BWA's default layout corresponds to
        ``checkpoint_words=4`` → one checkpoint per 128 rows).

    Queries charge ``occ_checkpoint_ranks`` / ``occ_scan_chars``.
    """

    def __init__(
        self,
        bwt: BWT,
        checkpoint_words: int = 4,
    ):
        if checkpoint_words < 1:
            raise ValueError("checkpoint spacing must be >= 1 word")
        self.bwt = bwt
        self.dollar_pos = bwt.dollar_pos
        self.n_rows = bwt.length
        self.checkpoint_words = int(checkpoint_words)
        self.d_rows = BASES_PER_WORD * self.checkpoint_words
        sym = bwt.symbols_without_sentinel()
        self.n_sym = int(sym.size)
        self.words = pack_2bit(sym)
        # Checkpoints: counts of each symbol strictly before every
        # checkpoint boundary (row multiples of d_rows in sentinel-free
        # coordinates), shape (n_checkpoints, 4).
        n_checkpoints = self.words.size // self.checkpoint_words + 1
        cum = np.zeros((n_checkpoints, SIGMA), dtype=np.int64)
        if self.n_sym:
            onehot = np.zeros((self.n_sym, SIGMA), dtype=np.int64)
            onehot[np.arange(self.n_sym), sym.astype(np.int64)] = 1
            full_cum = np.concatenate(
                [np.zeros((1, SIGMA), dtype=np.int64), np.cumsum(onehot, axis=0)]
            )
            boundaries = np.minimum(
                np.arange(n_checkpoints) * self.d_rows, self.n_sym
            )
            cum = full_cum[boundaries]
        if cum.size and cum.max() <= np.iinfo(np.uint32).max:
            self.checkpoints = cum.astype(np.uint32)
        else:
            self.checkpoints = cum
        text_codes = sym  # BWT permutes the text; counts are equal
        self.C = count_array(text_codes, sigma=SIGMA)

    # -- backend protocol ------------------------------------------------------

    def occ(self, symbol: int, i: int) -> int:
        """Occurrences of ``symbol`` in ``BWT[0:i]`` (sentinel row aware)."""
        if not 0 <= symbol < SIGMA:
            raise ValueError(f"symbol {symbol} outside DNA alphabet")
        if not 0 <= i <= self.n_rows:
            raise IndexError(f"occ position {i} out of range [0, {self.n_rows}]")
        j = i - 1 if i > self.dollar_pos else i
        return self._rank_sym(symbol, j)

    def _rank_sym(self, symbol: int, j: int) -> int:
        c = current_counters()
        c.occ_checkpoint_ranks += 1
        cp = j // self.d_rows
        count = int(self.checkpoints[cp, symbol])
        base = cp * self.d_rows
        remaining = j - base
        word_idx = cp * self.checkpoint_words
        c.occ_scan_chars += remaining
        while remaining >= BASES_PER_WORD:
            count += count_symbol_prefix(self.words[word_idx], symbol, BASES_PER_WORD)
            word_idx += 1
            remaining -= BASES_PER_WORD
        if remaining:
            count += count_symbol_prefix(self.words[word_idx], symbol, remaining)
        return count

    def occ_many(self, symbols, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`occ`.

        ``symbols`` is one symbol or an array with one symbol per
        position: the checkpoint gather and the XOR pattern are taken per
        element, so a mixed-symbol batch is still one pass.
        """
        p = np.asarray(positions, dtype=np.int64)
        if p.size == 0:
            return np.zeros(0, dtype=np.int64)
        sym = np.asarray(symbols, dtype=np.int64)
        j = np.where(p > self.dollar_pos, p - 1, p)
        cp = j // self.d_rows
        counts = self.checkpoints[cp, sym].astype(np.int64)
        base = cp * self.d_rows
        c = current_counters()
        if c is not UNCOUNTED:
            # Charge exactly as the scalar path would.
            c.occ_checkpoint_ranks += int(p.size)
            c.occ_scan_chars += int((j - base).sum())
        # Scan whole words vectorized: for each query, sum matches over its
        # checkpoint-local words.  Queries share few distinct (cp, span)
        # combos; handle by looping over word offsets within a checkpoint
        # (bounded by checkpoint_words, a small constant).
        pattern = np.broadcast_to(_SYMBOL_PATTERNS[sym], p.shape)
        padded_words = np.concatenate([self.words, np.zeros(1, dtype=np.uint64)])
        for w in range(self.checkpoint_words):
            word_start = base + w * BASES_PER_WORD
            upto = np.clip(j - word_start, 0, BASES_PER_WORD)
            active = upto > 0
            if not np.any(active):
                break
            widx = np.minimum(cp[active] * self.checkpoint_words + w, self.words.size)
            y = padded_words[widx] ^ pattern[active]
            ny = ~y
            hits = ny & (ny >> np.uint64(1)) & _LOW_PAIR_MASK
            partial = upto[active] < BASES_PER_WORD
            masks = np.where(
                partial,
                (np.uint64(1) << (2 * upto[active]).astype(np.uint64)) - np.uint64(1),
                np.uint64(0xFFFFFFFFFFFFFFFF),
            )
            counts[active] += popcount_u64(hits & masks)
        return counts

    def occ2_many(
        self, symbols, lo_positions: np.ndarray, hi_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused :meth:`occ_many` at both interval boundaries.

        A single vectorized pass serves the concatenated bound sets (one
        symbol, or one per interval), so the checkpoint gather and the
        per-word popcount scan are shared between ``lo`` and ``hi``
        instead of running twice.  Results and counter charges match
        per-symbol :meth:`occ_many` calls.
        """
        plo = np.asarray(lo_positions, dtype=np.int64)
        sym = np.asarray(symbols, dtype=np.int64)
        both = sym if sym.ndim == 0 else np.concatenate([sym, sym])
        counts = self.occ_many(both, np.concatenate([plo, hi_positions]))
        return counts[: plo.size], counts[plo.size :]

    def count_smaller(self, symbol: int) -> int:
        return int(self.C[symbol])

    # -- zero-copy rehydration ----------------------------------------------

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The packed table as (metadata, named arrays); no copies."""
        meta = {
            "checkpoint_words": self.checkpoint_words,
            "dollar_pos": int(self.dollar_pos),
            "n_rows": int(self.n_rows),
            "n_sym": int(self.n_sym),
        }
        arrays = {
            "words": self.words,
            "checkpoints": self.checkpoints,
            "C": self.C,
        }
        return meta, arrays

    @classmethod
    def from_arrays(
        cls,
        meta: dict,
        arrays: dict[str, np.ndarray],
        bwt: BWT | None = None,
    ) -> "OccTable":
        """Rehydrate around externally owned buffers without repacking."""
        self = cls.__new__(cls)
        self.checkpoint_words = int(meta["checkpoint_words"])
        self.d_rows = BASES_PER_WORD * self.checkpoint_words
        self.dollar_pos = int(meta["dollar_pos"])
        self.n_rows = int(meta["n_rows"])
        self.n_sym = int(meta["n_sym"])
        self.words = arrays["words"]
        self.checkpoints = arrays["checkpoints"]
        self.C = arrays["C"]
        self.bwt = bwt
        return self

    def access(self, i: int) -> int:
        """BWT symbol at row ``i``; ``-1`` for the sentinel row."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range [0, {self.n_rows})")
        if i == self.dollar_pos:
            return -1
        j = i - 1 if i > self.dollar_pos else i
        word = int(self.words[j // BASES_PER_WORD])
        return (word >> (2 * (j % BASES_PER_WORD))) & 3

    def lf(self, i: int) -> int:
        sym = self.access(i)
        if sym == -1:
            return 0
        return self.count_smaller(sym) + self.occ(sym, i)

    def lf_many(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lf`: one 2-bit gather plus one
        :meth:`occ_many` call over every non-sentinel row.  Identical to
        the scalar path row by row."""
        rows = np.asarray(rows, dtype=np.int64)
        out = np.zeros(rows.size, dtype=np.int64)  # the sentinel maps to row 0
        # Only non-sentinel rows gather a symbol: the sentinel row may sit
        # one past the last packed base (a whole-word BWT ending in $).
        real = np.flatnonzero(rows != self.dollar_pos)
        if real.size:
            r = rows[real]
            j = np.where(r > self.dollar_pos, r - 1, r)
            shifts = (2 * (j % BASES_PER_WORD)).astype(np.uint64)
            s = ((self.words[j // BASES_PER_WORD] >> shifts) & np.uint64(3)).astype(np.int64)
            out[real] = self.C[s] + self.occ_many(s, r)
        return out

    def size_in_bytes(self, include_shared: bool = True) -> int:
        """Packed BWT + checkpoints + C (``include_shared`` accepted for
        protocol compatibility; there are no shared tables here)."""
        return int(self.words.nbytes + self.checkpoints.nbytes + self.C.nbytes + 8)

    def build_batch_cache(self) -> None:
        """No-op: this backend's batch path needs no extra scratch."""

    def __repr__(self) -> str:
        return (
            f"OccTable(n={self.n_rows - 1}, d={self.d_rows}, "
            f"bytes={self.size_in_bytes()})"
        )
