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
from .counters import UNCOUNTED, current_counters, uncounted
from .rrr import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_SUPERBLOCK_FACTOR,
    BlockRankCache,
    RRRVector,
    charge_batch_ranks,
)


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


def pair_positions(lo_positions, hi_positions) -> np.ndarray:
    """Paired interval bounds as one ``(2, n)`` int64 scratch for
    :meth:`WaveletTree.rank_into`: row 0 the ``lo``, row 1 the ``hi``."""
    lo, hi = np.asarray(lo_positions), np.asarray(hi_positions)
    if lo.shape != hi.shape:
        raise ValueError("lo and hi positions must have the same shape")
    p = np.empty((2, lo.size), dtype=np.int64)
    p[0] = lo
    p[1] = hi
    return p


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
        self._init_routing()

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
        self._init_routing()
        return self

    def _init_routing(self) -> None:
        """Per-symbol paths, and the level table of the batch descent.

        The path (node, side) list of a symbol is fixed by the alphabet.
        For the batch descent it is also laid out as ``(depth, sigma)``
        tables: ``_level_node[d, s]`` indexes :meth:`nodes` and
        ``_level_side[d, s]`` is the side taken at depth ``d``;
        ``_level_live`` marks the depths a symbol's path reaches, and is
        ``None`` when every path has the full depth (a power-of-two
        alphabet).  Trees whose nodes are all RRR vectors of one ``(b,
        sf)`` answer batches from a :class:`TreeArena` of one tree — one
        :class:`BlockRankCache` spanning every node, built on first use;
        others descend node by node.
        """
        self._paths: dict[int, list[tuple[WaveletNode, int]]] = {
            s: self._path_for(s) for s in range(self.sigma)
        }
        order = self.nodes()
        index = {id(node): i for i, node in enumerate(order)}
        depth = max(len(path) for path in self._paths.values())
        self._level_node = np.zeros((depth, self.sigma), dtype=np.int64)
        self._level_side = np.zeros((depth, self.sigma), dtype=bool)
        live = np.zeros((depth, self.sigma), dtype=bool)
        for s, path in self._paths.items():
            for d, (node, side) in enumerate(path):
                self._level_node[d, s] = index[id(node)]
                self._level_side[d, s] = bool(side)
                live[d, s] = True
        self._level_live = None if live.all() else live
        bits = [node.bits for node in order]
        uniform = all(
            isinstance(v, RRRVector) and (v.b, v.sf) == (bits[0].b, bits[0].sf)
            for v in bits
        )
        self._arena_sf: int | None = bits[0].sf if uniform else None
        self._arena: TreeArena | None = None

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
        with one rank gather per tree level — two on the four-symbol
        tree, whatever the symbol mix.  Results and counter charges equal
        per-symbol calls over the same positions.
        """
        return self.rank_into(symbols, np.array(positions, dtype=np.int64))

    def rank2_many(
        self, symbols, lo_positions: np.ndarray, hi_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused :meth:`rank_many` at paired interval boundaries.

        One descent serves both bound sets, so each level's gather and
        in-block counts cover ``lo`` and ``hi`` together instead of
        being paid twice.  ``symbols`` is one symbol or one per interval.
        Results and counter charges match two separate :meth:`rank_many`
        calls.
        """
        p = self.rank_into(symbols, pair_positions(lo_positions, hi_positions))
        return p[0], p[1]

    def rank_into(self, symbols, p: np.ndarray) -> np.ndarray:
        """Ranks at the int64 positions ``p``, which the call may
        overwrite.

        ``p`` is caller-owned scratch of shape ``(n,)``, or ``(2, n)``
        for paired bounds; ``symbols`` is one symbol or ``n``, one per
        column, so a pair shares one symbol.  This is the copy-free core
        of :meth:`rank_many` and :meth:`rank2_many`, with their checks
        and counter charges.
        """
        return self._descend(np.asarray(symbols, dtype=np.int64), p)

    def access_rank_into(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(S[p], rank(S[p], p))`` for int64 positions ``p < n``, which
        the call overwrites.

        One top-down descent learns each position's symbol and its rank
        together (:meth:`TreeArena.access_rank_into`).  Counters are
        charged as :meth:`rank_into` over the same symbols and positions
        would charge them.  Trees without a uniform RRR arena, or whose
        paths differ in length (the five-symbol ablation tree), descend
        node by node (:meth:`_access_rank_nodes`).
        """
        if self._arena_sf is not None and self._level_live is None:
            return self._batch_arena().access_rank_into(p)
        if p.size and p.view(np.uint64).max() >= self.n:
            raise IndexError("access position out of range")
        current_counters().wt_ranks += int(p.size)
        if p.size == 0:
            return p.copy(), p
        return self._access_rank_nodes(p)

    def arena_key(self) -> tuple[int, int, int] | None:
        """``(sigma, b, sf)`` of a tree whose batches descend a
        :class:`TreeArena` along full-depth paths — trees of one key can
        share one arena — else ``None`` (trees descending node by node,
        or whose paths differ in length)."""
        if self._arena_sf is None or self._level_live is not None:
            return None
        return (self.sigma, self.root.bits.b, self._arena_sf)

    def _batch_arena(self) -> TreeArena:
        """This tree's :class:`TreeArena` (RRR trees of one ``(b, sf)``
        only), built on first use."""
        if self._arena is None:
            self.build_batch_cache()
        return self._arena

    def build_batch_cache(self) -> None:
        """Build the batch-rank scratch: for RRR trees one
        :class:`TreeArena` over every node (no per-node caches),
        otherwise each node's own cache."""
        if self._arena_sf is None:
            for node in self.nodes():
                if hasattr(node.bits, "build_batch_cache"):
                    node.bits.build_batch_cache()
            return
        self._arena = TreeArena([self])

    def _descend(self, sym: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Ranks of ``sym`` (0-d or one per column) at positions ``p``:
        :meth:`TreeArena.rank_into` on an RRR tree, node by node
        otherwise, with the same checks and counter charges."""
        if self._arena_sf is not None:
            return self._batch_arena().rank_into(sym, p)
        # Viewed as unsigned, a negative int64 compares above any bound.
        if sym.size and sym.view(np.uint64).max() >= self.sigma:
            raise ValueError(f"symbol outside alphabet [0, {self.sigma})")
        current_counters().wt_ranks += int(p.size)
        if sym.ndim and sym.shape != p.shape[-1:]:
            raise ValueError("symbols and positions must have the same shape")
        if p.ndim == 1:
            return self._descend_nodes(sym, p)
        both = sym if sym.ndim == 0 else np.tile(sym, p.shape[0])
        return self._descend_nodes(both, p.reshape(-1)).reshape(p.shape)

    def _descend_nodes(self, sym: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The descent node by node, one ``rank1_many`` per visited node
        over the positions routed through it: the path of trees whose
        nodes are not uniform RRR vectors (the structure ablation's
        plain and interleaved bit-vectors), and the oracle of the arena
        descent."""
        if sym.ndim == 0:
            for node, side in self._paths[int(sym)]:
                r1 = node.bits.rank1_many(p)
                if side == 0:
                    p -= r1
                else:
                    p[...] = r1
            return p
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

    def _access_rank_nodes(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`access_rank_into` node by node: one ``rank1_many`` per
        visited node over the positions routed through it, charged as
        :meth:`_descend_nodes` charges it.  The bit that routes each
        position is ``rank1(p + 1) - rank1(p)``, read uncharged: it sits
        in the block the charged rank already fetched."""
        sym = np.empty_like(p)
        out = np.empty_like(p)
        # (node, batch indices, positions at this node)
        pending = [(self.root, np.arange(p.size), p)]
        while pending:
            node, idx, pos = pending.pop()
            r1 = node.bits.rank1_many(pos)
            with uncounted():
                right = node.bits.rank1_many(pos + 1) > r1
            for mask, child, alphabet, nxt in (
                (~right, node.child0, node.alphabet0, pos - r1),
                (right, node.child1, node.alphabet1, r1),
            ):
                if not mask.any():
                    continue
                if child is None:
                    sym[idx[mask]] = alphabet[0]
                    out[idx[mask]] = nxt[mask]
                else:
                    pending.append((child, idx[mask], nxt[mask]))
        return sym, out

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

    def to_codes(self) -> np.ndarray:
        """Reconstruct the full code sequence (test oracle for losslessness)."""
        return np.array([self.access(i) for i in range(self.n)], dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"WaveletTree(n={self.n}, sigma={self.sigma}, "
            f"nodes={len(self.nodes())}, depth={self.depth()})"
        )


class TreeArena:
    """The batch descent of one or more wavelet trees of one shape over
    one :class:`BlockRankCache`.

    The trees' nodes (RRR vectors of one ``(b, sf)``) lie end to end in
    the arena.  Symbol ``a`` of tree ``s`` is the *key* ``s * sigma +
    a``: its path's nodes are tree ``s``'s, so one descent ranks the
    keys of every tree together, one arena gather per level — how the
    resident shards of a catalog share one backward-search step loop.
    A single tree's keys are its symbols, and its bounds stay scalars,
    so stacking costs the one-tree path no extra gather.

    ``level_base[d, key]`` is the arena base of the node a key's path
    visits at depth ``d``; ``level_side`` / ``level_live`` are the
    tree's side and live tables repeated per tree.
    """

    def __init__(self, trees: Sequence[WaveletTree]):
        first = trees[0]
        keys = {t.arena_key() for t in trees}
        if first._arena_sf is None or len(trees) > 1 and (None in keys or len(keys) > 1):
            raise ValueError("stacked trees need one alphabet and full-depth RRR nodes of one (b, sf)")
        order = [tree.nodes() for tree in trees]
        self.cache = BlockRankCache([node.bits for nodes in order for node in nodes])
        first_node = np.cumsum([0] + [len(nodes) for nodes in order[:-1]])
        self.sigma = first.sigma
        self.n_keys = len(trees) * first.sigma
        self.level_base = np.concatenate(
            [self.cache.bases[i + t._level_node] for t, i in zip(trees, first_node)],
            axis=1,
        )
        self.level_side = np.tile(first._level_side, len(trees))
        self.level_live = (
            None if first._level_live is None else np.tile(first._level_live, len(trees))
        )
        self.path_depth = [len(first._paths[a]) for a in range(first.sigma)]
        # Length bounds: a scalar for one tree; per tree (access) and per
        # key (rank), unsigned so a negative position fails the check.
        if len(trees) == 1:
            self.n, self.key_n = first.n, None
        else:
            self.n = np.array([t.n for t in trees], dtype=np.uint64)
            self.key_n = np.repeat(self.n, first.sigma)

    def rank_into(self, sym: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Ranks of keys ``sym`` (0-d or one per column) at int64
        positions ``p``, which the call overwrites.

        ``p`` is scratch of shape ``(n,)`` or ``(2, n)``; ``sym``
        broadcasts over the rows.  Every level is one
        :meth:`BlockRankCache.rank` call over all positions, each
        addressing its own node's span of the arena; a position then
        moves to ``r1`` (side 1) or ``p - r1`` (side 0).  Counters are
        charged per level exactly as per-node ``rank1_many`` calls over
        the same positions would charge them.
        """
        # Viewed as unsigned, a negative int64 compares above any bound.
        if sym.size and sym.view(np.uint64).max() >= self.n_keys:
            raise ValueError(f"symbol outside alphabet [0, {self.n_keys})")
        c = current_counters()
        c.wt_ranks += int(p.size)
        if sym.ndim and sym.shape != p.shape[-1:]:
            raise ValueError("symbols and positions must have the same shape")
        if p.size == 0:
            return p
        if self.key_n is None:
            out = p.view(np.uint64).max() > self.n
        else:
            out = (p.view(np.uint64) > self.key_n.take(sym)).any()
        if out:
            raise IndexError("rank position out of range")
        arena = self.cache
        b, sf = arena.b, arena.sf
        counted = c is not UNCOUNTED
        s = int(sym) if sym.ndim == 0 else None
        for d in range(self.level_base.shape[0] if s is None else self.path_depth[s]):
            sel = None
            if s is None:
                base = self.level_base[d].take(sym)
                side = self.level_side[d].take(sym)
                if self.level_live is not None:
                    live = self.level_live[d].take(sym)
                    if not live.all():  # uneven tree: some paths ended above
                        sel = np.flatnonzero(live)
                        base, side = base[sel], side[sel]
            else:
                base, side = self.level_base[d, s], self.level_side[d, s]
            pd = p if sel is None else p[..., sel]
            q = pd // b
            r = q * b
            np.subtract(pd, r, out=r)
            if counted:
                charge_batch_ranks(c, pd, q, r, sf)
            q += base
            r1 = arena.rank(q, r)
            if s is None:
                pd -= r1
                np.copyto(pd, r1, where=side)
            elif side:
                pd = r1
            else:
                pd -= r1
            if sel is None:
                p = pd
            else:
                p[..., sel] = pd
        return p

    def access_rank_into(
        self, p: np.ndarray, seg: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(S[p], rank(S[p], p))`` for int64 positions ``p``, each in
        tree ``seg`` (one per position; ``None`` for a single tree),
        which the call overwrites.  Trees must have full-depth paths (a
        power-of-two alphabet).

        One top-down descent learns each position's symbol and its rank
        together: every level is one :meth:`BlockRankCache.rank_bit`
        gather, whose bit picks the child and whose rank moves the
        position, as in :meth:`rank_into`.  Counters are charged as
        :meth:`rank_into` over the same symbols and positions would
        charge them.
        """
        if seg is None:
            out = p.size and p.view(np.uint64).max() >= self.n
        else:
            out = (p.view(np.uint64) >= self.n.take(seg)).any()
        if out:
            raise IndexError("access position out of range")
        c = current_counters()
        c.wt_ranks += int(p.size)
        if p.size == 0:
            return p.copy(), p
        arena = self.cache
        b, sf = arena.b, arena.sf
        counted = c is not UNCOUNTED
        # Every path has the full depth D and each node splits its
        # alphabet in halves, so the bits taken so far are the symbol's
        # high bits: ``code`` at depth d addresses the node every symbol
        # ``code << (D - d) + ...`` passes, and after D levels it is S[p].
        # Tree s's nodes at depth d are entries s * 2**d + code of that
        # column slice.
        depth = self.level_base.shape[0]
        code = None
        for d in range(depth):
            q = p // b
            r = q * b
            np.subtract(p, r, out=r)
            if counted:
                charge_batch_ranks(c, p, q, r, sf)
            nodes = self.level_base[d, :: 1 << (depth - d)]
            if code is None:
                q += nodes[0] if seg is None else nodes.take(seg)
            else:
                q += nodes.take(code if seg is None else (seg << d) + code)
            r1, bit = arena.rank_bit(q, r)
            p -= r1
            np.copyto(p, r1, where=bit)
            code = bit.astype(np.int64) if code is None else code * 2 + bit
        return code, p


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
