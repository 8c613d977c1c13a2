"""Balanced wavelet trees over small alphabets (paper §III-B, Figs. 1-2).

A wavelet tree stores a sequence over an alphabet Σ as a balanced binary
tree of bit-vectors: at each node, symbols from the left half of that
node's alphabet are written as 0 and the right half as 1; each child
re-encodes the subsequence of symbols routed to it, until leaves hold a
single symbol.  A symbol rank query then decomposes into ``log2 |Σ|``
binary rank queries — Fig. 2 of the paper.

BWaveR's nodes are structs holding an RRR bit-vector, two child pointers,
and the child alphabets; :class:`WaveletNode` mirrors that layout.  The
bit-vector representation is pluggable (``bitvector_factory``) so the
structure ablation can swap RRR for plain packed bit-vectors while keeping
the tree logic identical.

The tree is *balanced*: alphabets are split in half at every level, which
for the paper's target (power-of-two alphabets such as ``{A, C, G, T}``)
yields a perfect tree of depth ``log2 |Σ|``.  Non-power-of-two alphabets
are supported (depth ``ceil(log2 |Σ|)``) — the BWT wrapper in
:mod:`repro.core.bwt_structure` instead keeps the ``$`` terminator *out*
of the tree, the paper's explicit optimization.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .bitvector import BitVector
from .counters import current_counters
from .rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR, RRRVector


class WaveletNode:
    """One node of the tree: a bit-vector plus child links and alphabets.

    Matches the paper's five-field struct: the RRR-encoded bit-vector, the
    *child-zero* and *child-one* pointers, and the two child alphabets.
    """

    __slots__ = ("bits", "child0", "child1", "alphabet0", "alphabet1")

    def __init__(self, bits, alphabet0, alphabet1):
        self.bits = bits
        self.child0: "WaveletNode | None" = None
        self.child1: "WaveletNode | None" = None
        self.alphabet0: tuple[int, ...] = tuple(alphabet0)
        self.alphabet1: tuple[int, ...] = tuple(alphabet1)

    def is_leaf_side(self, side: int) -> bool:
        alpha = self.alphabet0 if side == 0 else self.alphabet1
        return len(alpha) <= 1


def _default_factory(b: int, sf: int) -> Callable:
    def make(bits: np.ndarray):
        return RRRVector(bits, b=b, sf=sf)

    return make


def plain_bitvector_factory(bits: np.ndarray) -> BitVector:
    """Node factory using uncompressed packed bit-vectors (ablation)."""
    return BitVector(bits)


class WaveletTree:
    """Balanced wavelet tree answering symbol rank/access/select.

    Parameters
    ----------
    symbols:
        Integer codes in ``[0, sigma)`` (use
        :mod:`repro.sequence.alphabet` to map DNA characters to codes).
    sigma:
        Alphabet size.  If omitted, inferred as ``max(symbols) + 1``.
    b, sf:
        RRR parameters forwarded to every node's bit-vector.
    bitvector_factory:
        Callable mapping a 0/1 numpy array to a rank-capable structure;
        overrides ``b``/``sf`` when given.
    """

    def __init__(
        self,
        symbols,
        sigma: int | None = None,
        b: int = DEFAULT_BLOCK_SIZE,
        sf: int = DEFAULT_SUPERBLOCK_FACTOR,
        bitvector_factory: Callable | None = None,
    ):
        codes = np.asarray(symbols, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if codes.size and codes.min() < 0:
            raise ValueError("symbol codes must be non-negative")
        if sigma is None:
            sigma = int(codes.max()) + 1 if codes.size else 2
        if sigma < 2:
            raise ValueError(f"alphabet size must be >= 2, got {sigma}")
        if codes.size and codes.max() >= sigma:
            raise ValueError("symbol code out of alphabet range")
        self.n = int(codes.size)
        self.sigma = int(sigma)
        self._factory = (
            bitvector_factory
            if bitvector_factory is not None
            else _default_factory(b, sf)
        )
        self.root = self._build(codes, tuple(range(sigma)))
        # Per-symbol routing: the path (node, side) list is fixed by the
        # alphabet, so precompute it once for scalar queries.
        self._paths: dict[int, list[tuple[WaveletNode, int]]] = {
            s: self._path_for(s) for s in range(sigma)
        }

    # -- construction --------------------------------------------------------

    def _build(self, codes: np.ndarray, alphabet: tuple[int, ...]) -> WaveletNode:
        half = (len(alphabet) + 1) // 2
        alpha0, alpha1 = alphabet[:half], alphabet[half:]
        right = np.isin(codes, alpha1)
        node = WaveletNode(
            self._factory(right.astype(np.uint8)), alpha0, alpha1
        )
        if len(alpha0) > 1:
            node.child0 = self._build(codes[~right], alpha0)
        if len(alpha1) > 1:
            node.child1 = self._build(codes[right], alpha1)
        return node

    # -- zero-copy rehydration ----------------------------------------------

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The tree as (metadata, named arrays) for external serving.

        Nodes are listed in a fixed preorder; node ``i``'s RRR arrays are
        exported under the ``node<i>/`` prefix.  Only trees whose nodes
        are :class:`~repro.core.rrr.RRRVector` instances can be exported
        (the plain-bit-vector ablation factory has no succinct layout to
        share).
        """
        order: list[WaveletNode] = []

        def visit(node: WaveletNode | None) -> int:
            if node is None:
                return -1
            idx = len(order)
            order.append(node)
            return idx

        # Preorder with explicit child indices (robust to alphabet shape).
        metas: list[dict] = []
        arrays: dict[str, np.ndarray] = {}
        stack: list[tuple[WaveletNode, int]] = []
        visit(self.root)
        metas.append({})
        stack.append((self.root, 0))
        while stack:
            node, idx = stack.pop()
            if not isinstance(node.bits, RRRVector):
                raise TypeError(
                    f"cannot export wavelet node of type "
                    f"{type(node.bits).__name__}; only RRR-backed trees "
                    f"support zero-copy serving"
                )
            bits_meta, bits_arrays = node.bits.export_arrays()
            child0 = visit(node.child0)
            child1 = visit(node.child1)
            metas[idx] = {
                "alphabet0": list(node.alphabet0),
                "alphabet1": list(node.alphabet1),
                "child0": child0,
                "child1": child1,
                "bits": bits_meta,
            }
            for name, arr in bits_arrays.items():
                arrays[f"node{idx}/{name}"] = arr
            if child1 >= 0:
                metas.append({})
                stack.append((node.child1, child1))
            if child0 >= 0:
                metas.append({})
                stack.append((node.child0, child0))
        meta = {"n": self.n, "sigma": self.sigma, "nodes": metas}
        return meta, arrays

    @classmethod
    def from_arrays(
        cls,
        meta: dict,
        arrays: dict[str, np.ndarray],
    ) -> "WaveletTree":
        """Rebuild a tree around externally owned node buffers (no copies)."""
        self = cls.__new__(cls)
        self.n = int(meta["n"])
        self.sigma = int(meta["sigma"])
        node_metas = meta["nodes"]
        nodes: list[WaveletNode] = []
        for i, nm in enumerate(node_metas):
            bits = RRRVector.from_arrays(
                nm["bits"],
                {
                    key: arrays[f"node{i}/{key}"]
                    for key in ("classes", "partial_sums", "offset_words", "offset_sums")
                },
            )
            nodes.append(WaveletNode(bits, nm["alphabet0"], nm["alphabet1"]))
        for node, nm in zip(nodes, node_metas):
            node.child0 = nodes[nm["child0"]] if nm["child0"] >= 0 else None
            node.child1 = nodes[nm["child1"]] if nm["child1"] >= 0 else None
        self.root = nodes[0]
        self._paths = {s: self._path_for(s) for s in range(self.sigma)}
        return self

    def _path_for(self, symbol: int) -> list[tuple[WaveletNode, int]]:
        path: list[tuple[WaveletNode, int]] = []
        node: WaveletNode | None = self.root
        while node is not None:
            if symbol in node.alphabet0:
                path.append((node, 0))
                node = node.child0
            elif symbol in node.alphabet1:
                path.append((node, 1))
                node = node.child1
            else:  # pragma: no cover - routing invariant
                raise AssertionError("symbol missing from node alphabets")
        return path

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def rank(self, symbol: int, p: int) -> int:
        """Occurrences of ``symbol`` in ``S[0:p]`` (Fig. 2's descent)."""
        if not 0 <= symbol < self.sigma:
            raise ValueError(f"symbol {symbol} outside alphabet [0, {self.sigma})")
        if not 0 <= p <= self.n:
            raise IndexError(f"rank position {p} out of range [0, {self.n}]")
        current_counters().wt_ranks += 1
        for node, side in self._paths[symbol]:
            if side == 0:
                p = p - node.bits.rank1(p)
            else:
                p = node.bits.rank1(p)
            if p == 0:
                return 0
        return p

    def rank_many(self, symbols, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank` for a batch of positions.

        ``symbols`` is one symbol for the whole batch or an array with one
        symbol per position.  Either way the batch takes a single descent
        that calls ``rank1_many`` once per node it visits, over every
        position routed through that node — three calls on the
        four-symbol tree, whatever the symbol mix.  Results and counter
        charges equal per-symbol calls over the same positions.
        """
        return self._descend(
            np.asarray(symbols, dtype=np.int64), np.array(positions, dtype=np.int64)
        )

    def rank2_many(
        self, symbols, lo_positions: np.ndarray, hi_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused :meth:`rank_many` at paired interval boundaries.

        One descent serves both bound sets: each node issues a single
        ``rank1_many`` over the concatenated positions, so the per-node
        decode work (prefix arrays, offset-stream gather, rank-table
        lookups) is shared between ``lo`` and ``hi`` instead of being
        paid twice.  ``symbols`` is one symbol or one per interval.
        Results and counter charges match two separate :meth:`rank_many`
        calls.
        """
        lo = np.asarray(lo_positions, dtype=np.int64)
        sym = np.asarray(symbols, dtype=np.int64)
        both = sym if sym.ndim == 0 else np.concatenate([sym, sym])
        hi = np.asarray(hi_positions, dtype=np.int64)
        p = self._descend(both, np.concatenate([lo, hi]))
        return p[: lo.size], p[lo.size :]

    def _descend(self, sym: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Ranks of ``sym`` (0-d or one per position) at positions ``p``.

        ``p`` is scratch that callers allocate for this call: the
        one-symbol descent overwrites it node by node instead of keeping
        one position array per level alive, which matters on the largest
        batches (the ftab build).
        """
        if sym.size and (sym.min() < 0 or sym.max() >= self.sigma):
            raise ValueError(f"symbol outside alphabet [0, {self.sigma})")
        current_counters().wt_ranks += int(p.size)
        if sym.ndim == 0:
            for node, side in self._paths[int(sym)]:
                r1 = node.bits.rank1_many(p)
                if side == 0:
                    p -= r1
                else:
                    p[...] = r1
            return p
        if sym.shape != p.shape:
            raise ValueError("symbols and positions must have the same shape")
        out = np.empty_like(p)
        # (node, batch indices, positions at this node, their symbols)
        pending = [(self.root, np.arange(p.size), p, sym)]
        while pending:
            node, idx, pos, s = pending.pop()
            r1 = node.bits.rank1_many(pos)
            # Node alphabets are contiguous code ranges split in half.
            right = s >= node.alphabet1[0]
            for mask, child, nxt in (
                (~right, node.child0, pos - r1),
                (right, node.child1, r1),
            ):
                if not mask.any():
                    continue
                if child is None:
                    out[idx[mask]] = nxt[mask]
                else:
                    pending.append((child, idx[mask], nxt[mask], s[mask]))
        return out

    def access(self, i: int) -> int:
        """Symbol code at position ``i``."""
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range [0, {self.n})")
        node: WaveletNode | None = self.root
        while node is not None:
            bit = node.bits.access(i) if hasattr(node.bits, "access") else node.bits[i]
            if bit == 0:
                i = i - node.bits.rank1(i)
                if node.child0 is None:
                    return node.alphabet0[0]
                node = node.child0
            else:
                i = node.bits.rank1(i)
                if node.child1 is None:
                    return node.alphabet1[0]
                node = node.child1
        raise AssertionError("unreachable")  # pragma: no cover

    def select(self, symbol: int, k: int) -> int:
        """Position of the ``k``-th (1-based) occurrence of ``symbol``.

        Bottom-up traversal using the node bit-vectors' select: the
        ``k``-th occurrence at a child level is the ``select``-th bit of
        the child's side in the parent — ``log2(sigma)`` binary selects.
        Falls back to a binary search over the monotone rank function for
        node representations without select support.
        """
        total = self.rank(symbol, self.n)
        if k < 1 or k > total:
            raise IndexError(f"select({symbol}, {k}) out of range [1, {total}]")
        path = self._paths[symbol]
        if all(
            hasattr(node.bits, "select1") and hasattr(node.bits, "select0")
            for node, _ in path
        ):
            for node, side in reversed(path):
                pos = node.bits.select1(k) if side == 1 else node.bits.select0(k)
                k = pos + 1
            return k - 1
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.rank(symbol, mid + 1) >= k:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def symbol_counts(self) -> np.ndarray:
        """Occurrences of every symbol (via ranks at ``n``)."""
        return np.array([self.rank(s, self.n) for s in range(self.sigma)], dtype=np.int64)

    # -- structure info ----------------------------------------------------------

    def nodes(self) -> list[WaveletNode]:
        out: list[WaveletNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if node.child0 is not None:
                stack.append(node.child0)
            if node.child1 is not None:
                stack.append(node.child1)
        return out

    def depth(self) -> int:
        """Longest root-to-leaf path length (``log2 sigma`` when a power of 2)."""
        return max(len(path) for path in self._paths.values())

    def size_in_bytes(self, include_shared: bool = False) -> int:
        """Sum of node bit-vector footprints.

        The shared Global Rank Table is added at most once (the paper's
        sharing), not per node.
        """
        total = 0
        shared_added = False
        for node in self.nodes():
            bits = node.bits
            if isinstance(bits, RRRVector):
                total += bits.size_in_bytes(include_shared=False)
                if include_shared and not shared_added:
                    total += bits.tables.size_in_bytes()
                    shared_added = True
            else:
                total += bits.size_in_bytes()
        return total

    def build_batch_cache(self) -> None:
        for node in self.nodes():
            if hasattr(node.bits, "build_batch_cache"):
                node.bits.build_batch_cache()

    def to_codes(self) -> np.ndarray:
        """Reconstruct the full code sequence (test oracle for losslessness)."""
        return np.array([self.access(i) for i in range(self.n)], dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"WaveletTree(n={self.n}, sigma={self.sigma}, "
            f"nodes={len(self.nodes())}, depth={self.depth()})"
        )


def wavelet_tree_from_string(
    text: str,
    alphabet: Sequence[str] | None = None,
    **kwargs,
) -> tuple[WaveletTree, dict[str, int]]:
    """Convenience: build a tree from a character string.

    Returns the tree and the character→code mapping used.
    """
    if alphabet is None:
        alphabet = sorted(set(text))
    mapping = {ch: i for i, ch in enumerate(alphabet)}
    unknown = set(text) - set(mapping)
    if unknown:
        raise ValueError(f"characters outside alphabet: {sorted(unknown)}")
    codes = np.array([mapping[ch] for ch in text], dtype=np.int64)
    sigma = max(2, len(alphabet))
    return WaveletTree(codes, sigma=sigma, **kwargs), mapping
