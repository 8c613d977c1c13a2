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
from .wavelet_tree import WaveletTree, pair_positions

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

    def _tree_rank(self, symbols, p: np.ndarray) -> np.ndarray:
        """Occ at the full-BWT rows ``p`` (int64 scratch of shape
        ``(n,)`` or ``(2, n)``, shifted in place past the sentinel slot
        the tree omits) in one wavelet descent."""
        if self.store_sentinel_in_tree:
            return self.tree.rank_into(np.asarray(symbols, dtype=np.int64) + 1, p)
        p -= p > self.dollar_pos
        return self.tree.rank_into(symbols, p)

    def occ_many(self, symbols, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`occ` for batch backward search.

        ``symbols`` is one symbol or an array with one symbol per
        position; either way the batch is one wavelet descent.
        """
        return self._tree_rank(symbols, np.array(positions, dtype=np.int64))

    def occ2_many(
        self, symbols, lo_positions: np.ndarray, hi_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused :meth:`occ_many` at both interval boundaries.

        Backward search updates ``lo`` and ``hi`` with the same symbol
        every step; one wavelet descent answers both bound sets of every
        interval, each with its own symbol, with one arena gather per
        tree level for all of them.  Results and counter charges are
        identical to two per-symbol :meth:`occ_many` calls per symbol
        present.
        """
        p = self._tree_rank(symbols, pair_positions(lo_positions, hi_positions))
        return p[0], p[1]

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

        Each row's BWT symbol and its rank come from one top-down
        wavelet descent (:meth:`WaveletTree.access_rank_into`), so no
        raw copy of the BWT is read — the kernel behind the shared LF
        walk of :meth:`repro.sequence.sampled_sa.SampledSA.locate_batch`.
        Results are identical to the scalar :meth:`lf`, and the counters
        are charged as the rank descent of the rows' own symbols.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if self.store_sentinel_in_tree:
            # Five-symbol tree: $ is symbol 0, the first of its kind,
            # so its rank is already its LF image, row 0.
            sym, out = self.tree.access_rank_into(rows.copy())
            real = sym > 0
            out[real] += self.C.take(sym[real] - 1)
            return out
        real = rows != self.dollar_pos
        if real.all():  # a locate walk never steps off row $
            sym, out = self.tree.access_rank_into(rows - (rows > self.dollar_pos))
            out += self.C.take(sym)
            return out
        out = np.zeros(rows.size, dtype=np.int64)  # the sentinel maps to row 0
        r = rows[real]
        sym, rank = self.tree.access_rank_into(r - (r > self.dollar_pos))
        out[real] = self.C.take(sym) + rank
        return out

    # -- zero-copy rehydration ----------------------------------------------

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The *encoded* structure as (metadata, named arrays).

        Rather than the raw BWT — which would need the wavelet tree
        re-encoded on every load — this exports the finished succinct
        layout (every node's classes/partial sums/offset stream),
        so :meth:`from_arrays` re-attaches in O(1) without re-encoding.
        The BWT itself is not included: the wavelet tree encodes it.
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
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "BWTStructure":
        """Rehydrate around externally owned buffers without re-encoding.

        The raw BWT is not part of the encoded layout, so the rehydrated
        structure has ``bwt = None``; every query reads the wavelet tree.
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
        self.bwt = None
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
        """Build the wavelet tree's batch-rank arena now rather than on
        the first batch query (scratch memory, excluded from
        :meth:`size_in_bytes`)."""
        self.tree.build_batch_cache()

    def __repr__(self) -> str:
        return (
            f"BWTStructure(n={self.n_rows - 1}, b={self.b}, sf={self.sf}, "
            f"sentinel_in_tree={self.store_sentinel_in_tree}, "
            f"bytes={self.size_in_bytes()})"
        )

