"""Several FM-indexes searched as one (DESIGN.md §13).

A served catalog maps every read batch against each resident shard.
Shards whose kernels have one shape stack: their wavelet nodes share one
rank arena (:class:`StackedBWT`), their locate
structures one gather or one LF walk
(:meth:`~repro.sequence.sampled_sa.FullSA.stack`,
:meth:`~repro.sequence.sampled_sa.SampledSA.stack`), and every (read,
strand, shard) pattern goes through the one :class:`FMIndex` step loop.

The shape (:func:`stack_key`) is the succinct backend with the sentinel
out of a four-symbol tree of RRR nodes of one ``(b, sf)``, one locate
kind (full, sampled at one ``k``, or none) and one ftab ``k`` (or none).
Indexes that match no other — another ``b``/``sf``, the ``OccTable``
backend, the five-symbol tree — form groups of one and search their own
index: a grouping rule (:func:`stack_groups`), not a second code path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bwt_structure import SIGMA, BWTStructure
from ..core.wavelet_tree import TreeArena, pair_positions
from ..sequence.sampled_sa import FullSA
from .fm_index import FMIndex
from .ftab import Ftab


class StackedBWT:
    """The rank kernel of several
    :class:`~repro.core.bwt_structure.BWTStructure` s over one
    :class:`~repro.core.wavelet_tree.TreeArena`.

    Symbol ``a`` of structure ``s`` is the key ``s * SIGMA + a``, so
    :meth:`occ2_many` and :meth:`count_smaller` answer one backward-search
    step of patterns in every structure at once — the step loop of
    :class:`~repro.index.fm_index.FMIndex` runs unchanged over keys.
    Each structure keeps its own ``C``, ``$`` row and row count.  Only
    structures with the sentinel out of the tree and uniform RRR nodes of
    one ``(b, sf)`` stack (:func:`stack_key`).
    Results and counter charges equal per-structure calls.
    """

    def __init__(self, structures: list[BWTStructure]):
        if any(s.store_sentinel_in_tree for s in structures):
            raise ValueError("five-symbol trees do not stack")
        self.arena = TreeArena([s.tree for s in structures])
        self.n_rows = np.array([s.n_rows for s in structures], dtype=np.int64)
        self.dollar = np.array([s.dollar_pos for s in structures], dtype=np.int64)
        self._key_dollar = np.repeat(self.dollar, SIGMA)
        self.C = np.concatenate([s.C[:SIGMA] for s in structures]).astype(np.int64)

    def count_smaller(self, key: int) -> int:
        return int(self.C[key])

    def occ2_many(
        self, keys: np.ndarray, lo_positions: np.ndarray, hi_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``BWTStructure.occ2_many`` of every key's own structure."""
        p = pair_positions(lo_positions, hi_positions)
        p -= p > self._key_dollar.take(keys, mode="clip")  # keys checked below
        p = self.arena.rank_into(keys, p)
        return p[0], p[1]

    def lf_many(self, rows: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """``BWTStructure.lf_many`` of rows ``rows`` of structures
        ``seg`` (one per row), in one descent."""
        dollar = self.dollar.take(seg)
        real = rows != dollar
        if real.all():  # a locate walk never steps off row $
            sym, out = self.arena.access_rank_into(rows - (rows > dollar), seg)
            out += self.C.take(seg * SIGMA + sym)
            return out
        out = np.zeros(rows.size, dtype=np.int64)  # the sentinel maps to row 0
        r, s = rows[real], seg[real]
        sym, rank = self.arena.access_rank_into(r - (r > dollar[real]), s)
        out[real] = self.C.take(s * SIGMA + sym) + rank
        return out


def stack_key(index: FMIndex) -> tuple | None:
    """The kernel shape of ``index``; indexes with equal keys stack, and
    ``None`` stacks with nothing."""
    backend = index.backend
    if not isinstance(backend, BWTStructure) or backend.store_sentinel_in_tree:
        return None
    tree_key = backend.tree.arena_key()
    if tree_key is None:
        return None
    loc = index.locate_structure
    if loc is None:
        locate: tuple = ("none",)
    elif isinstance(loc, FullSA):
        locate = ("full",)
    else:
        locate = ("sampled", loc.k, loc.marks.b, loc.marks.sf)
    ftab = index.ftab if index.use_ftab else None
    return (tree_key, locate, ftab.k if ftab is not None else 0)


def stack_groups(indexes: Sequence[FMIndex]) -> list[list[int]]:
    """Positions of ``indexes`` grouped by :func:`stack_key`, in order of
    first appearance; an index with key ``None`` is a group of one."""
    groups: dict[object, list[int]] = {}
    for i, index in enumerate(indexes):
        key = stack_key(index)
        groups.setdefault(i if key is None else key, []).append(i)
    return list(groups.values())


class StackedIndex(FMIndex):
    """Indexes of one :func:`stack_key` as one batch query object.

    :meth:`search_batch` searches every pattern in each index (segment)
    with one step loop; the locate structure resolves each segment's
    intervals with one gather or one LF walk.  Each segment keeps its
    own ``C``, ``$`` row, row count, sample array and ftab.  Only the
    batch queries the mapper uses are served; ``search``/``locate`` of
    one pattern belong to the member indexes.
    """

    def __init__(self, indexes: Sequence[FMIndex]):
        keys = {stack_key(index) for index in indexes}
        if len(keys) != 1 or None in keys:
            raise ValueError("these indexes do not stack")
        self.indexes = list(indexes)
        parts = [index.locate_structure for index in self.indexes]
        super().__init__(
            StackedBWT([index.backend for index in self.indexes]),
            None if parts[0] is None else type(parts[0]).stack(parts),
        )
        self.n_segments = len(self.indexes)
        self._ftabs = tuple(
            index.ftab if index.use_ftab else None for index in self.indexes
        )

    def _segment_ftabs(self) -> tuple[Ftab | None, ...]:
        return self._ftabs

    @property
    def n_rows(self) -> int:
        """The largest segment's row count: every row and text position
        of every segment lies below it."""
        return int(self.backend.n_rows.max())

    def __repr__(self) -> str:
        return f"StackedIndex(segments={self.n_segments}, rows={self.backend.n_rows.tolist()})"
