"""The BWaveR data structure (paper Fig. 1): WT-of-RRR over the BWT.

This composes the pieces of :mod:`repro.core` into the structure the FPGA
kernel holds in BRAM:

* a balanced **wavelet tree** whose nodes are **RRR sequences**, encoding
  the BWT of the reference;
* the sentinel's BWT position stored in a **separate variable** — the
  paper's optimization that keeps the DNA alphabet at exactly
  ``2**2 = 4`` symbols (two tree levels) instead of five (three levels);
* the FM-index **C array** (symbols lexicographically smaller than each
  symbol, the sentinel counted once).

It exposes exactly the two queries the backward search needs, ``C(a)``
and ``Occ(a, i)``, with the sentinel adjustment folded into ``Occ``:
for a full-BWT position ``i`` (over the length-``n+1`` BWT including
``$``), the wavelet tree — which stores only the ``n`` real symbols — is
queried at ``i - 1`` when ``i`` lies past the sentinel slot.

``store_sentinel_in_tree=True`` builds the un-optimized five-symbol
variant for the ablation bench (``bench_ablation_dollar.py``).
"""

from __future__ import annotations

import numpy as np

from ..sequence.bwt import BWT, count_array
from .rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR
from .wavelet_tree import WaveletTree

SIGMA = 4


class BWTStructure:
    """Succinct FM-index backend over a :class:`~repro.sequence.bwt.BWT`.

    Parameters
    ----------
    bwt:
        The transformed reference (carries the suffix array for locate).
    b, sf:
        RRR block size and superblock factor for every wavelet node.
    store_sentinel_in_tree:
        When true, the sentinel is encoded as a fifth symbol inside the
        wavelet tree (deeper tree, larger nodes) instead of the paper's
        separate-variable optimization.  Query results are identical.
    bitvector_factory:
        Forwarded to :class:`~repro.core.wavelet_tree.WaveletTree` (the
        structure ablation swaps RRR for plain bit-vectors here).
    """

    def __init__(
        self,
        bwt: BWT,
        b: int = DEFAULT_BLOCK_SIZE,
        sf: int = DEFAULT_SUPERBLOCK_FACTOR,
        store_sentinel_in_tree: bool = False,
        bitvector_factory=None,
    ):
        self.bwt = bwt
        self.b = b
        self.sf = sf
        self.dollar_pos = bwt.dollar_pos
        self.n_rows = bwt.length  # n + 1 Burrows-Wheeler matrix rows
        self.store_sentinel_in_tree = bool(store_sentinel_in_tree)
        kwargs = dict(b=b, sf=sf)
        if bitvector_factory is not None:
            kwargs["bitvector_factory"] = bitvector_factory
        if self.store_sentinel_in_tree:
            # Five-symbol variant: $ -> 0, A..T -> 1..4.
            sym = bwt.codes.astype(np.int64) + 1
            sym[bwt.dollar_pos] = 0
            self.tree = WaveletTree(sym, sigma=SIGMA + 1, **kwargs)
        else:
            self.tree = WaveletTree(
                bwt.symbols_without_sentinel(), sigma=SIGMA, **kwargs
            )
        # C over the original text codes; the sentinel contributes 1 to
        # every entry because it sorts before all real symbols.
        text_codes = np.delete(bwt.codes, bwt.dollar_pos) if bwt.text_length else np.zeros(0, dtype=np.uint8)
        # The BWT is a permutation of the text, so symbol counts match.
        self.C = count_array(text_codes, sigma=SIGMA)

    # -- FM-index primitives ---------------------------------------------------

    def occ(self, symbol: int, i: int) -> int:
        """``Occ(a, i)``: occurrences of ``symbol`` in ``BWT[0:i]``.

        ``i`` ranges over ``[0, n + 1]`` (full matrix rows, sentinel slot
        included).  This is the query Eq. (4)/(5) consume.
        """
        if not 0 <= symbol < SIGMA:
            raise ValueError(f"symbol {symbol} outside DNA alphabet")
        if not 0 <= i <= self.n_rows:
            raise IndexError(f"occ position {i} out of range [0, {self.n_rows}]")
        if self.store_sentinel_in_tree:
            return self.tree.rank(symbol + 1, i)
        # Sentinel adjustment: positions past the $ slot shift down by one
        # in the sentinel-free sequence the tree stores.
        j = i - 1 if i > self.dollar_pos else i
        return self.tree.rank(symbol, j)

    def _tree_symbols(self, symbols) -> np.ndarray:
        """Symbol codes as the wavelet tree stores them."""
        sym = np.asarray(symbols, dtype=np.int64)
        return sym + 1 if self.store_sentinel_in_tree else sym

    def _tree_positions(self, positions) -> np.ndarray:
        """Row positions shifted past the sentinel slot the tree omits."""
        p = np.asarray(positions, dtype=np.int64)
        if self.store_sentinel_in_tree:
            return p
        return np.where(p > self.dollar_pos, p - 1, p)

    def occ_many(self, symbols, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`occ` for batch backward search.

        ``symbols`` is one symbol or an array with one symbol per
        position; either way the batch is one wavelet descent.
        """
        return self.tree.rank_many(
            self._tree_symbols(symbols), self._tree_positions(positions)
        )

    def occ2_many(
        self, symbols, lo_positions: np.ndarray, hi_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused :meth:`occ_many` at both interval boundaries.

        Backward search updates ``lo`` and ``hi`` with the same symbol
        every step; one wavelet descent answers both bound sets of every
        interval, each with its own symbol, while sharing every node's
        decode work.  Results and counter charges are identical to two
        per-symbol :meth:`occ_many` calls per symbol present.
        """
        return self.tree.rank2_many(
            self._tree_symbols(symbols),
            self._tree_positions(lo_positions),
            self._tree_positions(hi_positions),
        )

    def count_smaller(self, symbol: int) -> int:
        """``C(a)``: text symbols (plus sentinel) smaller than ``symbol``."""
        return int(self.C[symbol])

    def access(self, i: int) -> int:
        """BWT symbol code at row ``i``; ``-1`` denotes the sentinel."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range [0, {self.n_rows})")
        if i == self.dollar_pos and not self.store_sentinel_in_tree:
            return -1
        if self.store_sentinel_in_tree:
            return self.tree.access(i) - 1
        j = i - 1 if i > self.dollar_pos else i
        return self.tree.access(j)

    def lf(self, i: int) -> int:
        """Last-first mapping of row ``i`` (used by inverse walks/tests)."""
        sym = self.access(i)
        if sym == -1:
            return 0  # the sentinel maps to the first row
        return self.count_smaller(sym) + self.occ(sym, i)

    def lf_many(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lf` over an array of rows.

        One symbol gather plus one :meth:`occ_many` call over every
        non-sentinel row — the kernel behind the shared LF walk of
        :meth:`repro.sequence.sampled_sa.SampledSA.locate_batch`.
        Results are identical to the scalar :meth:`lf`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if self.bwt is not None and not self.store_sentinel_in_tree:
            # Fast path: read the BWT symbols straight from the raw codes
            # (the placeholder at the sentinel slot is masked below).
            syms = self.bwt.codes[rows].astype(np.int64)
            syms[rows == self.dollar_pos] = -1
        else:
            syms = np.array([self.access(int(r)) for r in rows], dtype=np.int64)
        out = np.zeros(rows.size, dtype=np.int64)  # the sentinel maps to row 0
        real = np.flatnonzero(syms >= 0)
        if real.size:
            s = syms[real]
            out[real] = self.C[s] + self.occ_many(s, rows[real])
        return out

    # -- zero-copy rehydration ----------------------------------------------

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The *encoded* structure as (metadata, named arrays).

        Rather than the raw BWT — which would need the wavelet tree
        re-encoded on every load — this exports the finished succinct
        layout (every node's classes/partial sums/offset stream),
        so :meth:`from_arrays` re-attaches in O(1) without re-encoding.
        The BWT itself is not included; pass it separately (the flat
        container stores its codes and suffix array as shared segments).
        """
        tree_meta, tree_arrays = self.tree.export_arrays()
        meta = {
            "b": self.b,
            "sf": self.sf,
            "sentinel_in_tree": self.store_sentinel_in_tree,
            "dollar_pos": int(self.dollar_pos),
            "n_rows": int(self.n_rows),
            "tree": tree_meta,
        }
        arrays = {f"tree/{name}": arr for name, arr in tree_arrays.items()}
        arrays["C"] = self.C
        return meta, arrays

    @classmethod
    def from_arrays(
        cls,
        meta: dict,
        arrays: dict[str, np.ndarray],
        bwt: BWT | None = None,
    ) -> "BWTStructure":
        """Rehydrate around externally owned buffers without re-encoding.

        ``bwt`` (when available, e.g. memmapped codes + suffix array from
        the flat container) is attached for consumers that walk the raw
        transform (re-serialization, inspection); queries never need it.
        """
        self = cls.__new__(cls)
        self.b = int(meta["b"])
        self.sf = int(meta["sf"])
        self.store_sentinel_in_tree = bool(meta["sentinel_in_tree"])
        self.dollar_pos = int(meta["dollar_pos"])
        self.n_rows = int(meta["n_rows"])
        self.tree = WaveletTree.from_arrays(
            meta["tree"],
            {
                name.removeprefix("tree/"): arr
                for name, arr in arrays.items()
                if name.startswith("tree/")
            },
        )
        self.C = arrays["C"]
        self.bwt = bwt
        return self

    # -- structure info ----------------------------------------------------------

    def size_in_bytes(self, include_shared: bool = True) -> int:
        """Footprint of the succinct encoding (tree nodes + metadata).

        Includes one copy of the shared Global Rank Table by default —
        matching the paper's accounting of a deployed single-reference
        structure.  Excludes the suffix array, which stays in host memory
        (locate is a host-side step in BWaveR's architecture).
        """
        total = self.tree.size_in_bytes(include_shared=include_shared)
        total += self.C.nbytes
        total += 8  # dollar_pos
        return total

    def uncompressed_size_bytes(self) -> int:
        """1 byte/char baseline the paper compares against (Fig. 5)."""
        return self.n_rows

    def build_batch_cache(self) -> None:
        self.tree.build_batch_cache()

    def __repr__(self) -> str:
        return (
            f"BWTStructure(n={self.n_rows - 1}, b={self.b}, sf={self.sf}, "
            f"sentinel_in_tree={self.store_sentinel_in_tree}, "
            f"bytes={self.size_in_bytes()})"
        )
