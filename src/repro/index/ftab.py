"""K-mer jump-start table ("ftab"): precomputed seed intervals.

Bowtie2 and BWA — the software baselines the paper measures against —
skip the first *k* backward-search steps of every query with a lookup
table holding the SA interval of every length-*k* string over the DNA
alphabet.  This module brings the same optimization to the whole search
stack: :class:`Ftab` stores, for each of the ``4**k`` k-mers, the
half-open interval ``[lo, hi)`` *and* the number of symbols the scalar
search would have consumed before its first empty interval.  A query of
length ``>= k`` then starts at step ``k`` with a single table read, and
— because emptied entries record the exact ``(lo, steps)`` the stepwise
recurrence would have produced — results are bit-identical with the
table on or off (the differential selfcheck enforces this).

Layout
------
Three parallel arrays indexed by the k-mer's base-4 value read left to
right (``idx = sum(code[j] * 4**(k-1-j))``):

* ``lo``/``hi`` — ``int64`` interval bounds.  For an entry whose
  interval emptied at step ``s < k``, both hold the ``lo`` value of the
  emptying step (exactly what ``FMIndex.search`` returns).
* ``steps`` — ``uint8`` symbols consumed: ``k`` for live entries,
  ``s <= k`` for emptied ones.

Build algorithm
---------------
Bottom-up over k-mer length, fully vectorized — no per-k-mer search.
Level 1 is ``[C(a), C(a) + Occ(a, n_rows))``; level ``j + 1`` prepends
each symbol ``a`` to every level-``j`` entry:

.. math::

    lo' = C(a) + Occ(a, lo), \\qquad hi' = C(a) + Occ(a, hi).

Only live entries are ranked, with one mixed-symbol :meth:`occ2_many`
call per level over their four extensions (a level with more than
``4**9`` live extensions takes one call per group of symbols, which
bounds the rank's transient arrays).  Entries already emptied at
level ``j`` are copied into their four extensions unchanged (the scalar
search never reaches the prepended symbol), which is what preserves
``steps`` parity; an entry emptied at step ``s`` keeps the emptying
``lo`` on both bounds because that is what the scalar search returns.
A short reference has few live k-mers (a 1 kbp text has under 1,000 of
the 262,144 9-mers), so the rank work follows the text, not ``4**k``.
"""

from __future__ import annotations

import numpy as np

SIGMA = 4

#: Bowtie2's default seed-table order; 4**10 entries.
DEFAULT_FTAB_K = 10

#: Version tag recorded in the flat-container manifest entry.
FTAB_FORMAT_VERSION = 1

#: Sanity bound: 4**15 entries is already 1 GiB of int64 bounds.
MAX_FTAB_K = 15

#: Most intervals one build rank call takes: a level whose live
#: extensions exceed it is ranked one group of symbols per call, so the
#: rank's transient arrays stay at most 4**9 intervals long.
_RANK_CHUNK = SIGMA**9


class Ftab:
    """Seed-interval table over all ``4**k`` DNA k-mers.

    Instances are immutable query objects; build one with :meth:`build`
    (vectorized, against any rank backend) or re-attach exported arrays
    with :meth:`from_arrays` (zero-copy, e.g. from the flat container).
    """

    __slots__ = ("k", "lo", "hi", "steps", "_rev_weights")

    def __init__(self, k: int, lo: np.ndarray, hi: np.ndarray, steps: np.ndarray):
        if not 1 <= k <= MAX_FTAB_K:
            raise ValueError(f"ftab k must lie in [1, {MAX_FTAB_K}], got {k}")
        n_entries = SIGMA**k
        if lo.shape != (n_entries,) or hi.shape != (n_entries,) or steps.shape != (n_entries,):
            raise ValueError(
                f"ftab arrays must have {n_entries} entries for k={k}"
            )
        self.k = int(k)
        self.lo = lo
        self.hi = hi
        self.steps = steps
        # Weight of the symbol consumed at step t (pattern position
        # m-1-t): 4**t.  Used to index from reversed-code layouts.
        self._rev_weights = SIGMA ** np.arange(k, dtype=np.int64)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, backend, k: int = DEFAULT_FTAB_K) -> "Ftab":
        """Precompute every k-mer's interval bottom-up in O(4^k).

        ``backend`` is any rank backend (``occ_many``/``occ2_many``/
        ``count_smaller``/``n_rows``).  Each level issues fused
        ``occ2_many`` calls over the four extensions of the previous
        level's live intervals only (one call unless there are more than
        ``4**9``) — never one search per k-mer.
        """
        if not 1 <= k <= MAX_FTAB_K:
            raise ValueError(f"ftab k must lie in [1, {MAX_FTAB_K}], got {k}")
        n_rows = int(backend.n_rows)
        C = np.array(
            [backend.count_smaller(a) for a in range(SIGMA)], dtype=np.int64
        )
        # Level 1: the interval of each single symbol from [0, n_rows).
        top = np.full(SIGMA, n_rows, dtype=np.int64)
        occ_top = np.array(
            [backend.occ_many(a, top[a : a + 1])[0] for a in range(SIGMA)],
            dtype=np.int64,
        )
        lo = C.copy()  # Occ(a, 0) == 0
        hi = C + occ_top
        steps = np.ones(SIGMA, dtype=np.uint8)
        dead = lo >= hi
        hi[dead] = lo[dead]
        # Levels 2..k: prepend each symbol to every existing k-mer.  The
        # index of ``a + kmer`` is ``a * 4**level + idx(kmer)``.  Every
        # extension starts as a copy of its k-mer — final for emptied
        # ones — and mixed-symbol rank calls extend the live ones.
        for level in range(1, k):
            size = SIGMA**level
            live = np.flatnonzero(lo < hi)
            live_lo, live_hi = lo[live], hi[live]
            lo, hi, steps = np.tile(lo, SIGMA), np.tile(hi, SIGMA), np.tile(steps, SIGMA)
            if not live.size:
                continue
            # One call per level while its extensions fit in a chunk;
            # bigger levels take one call per group of symbols.
            groups = min(SIGMA, -(-SIGMA * live.size // _RANK_CHUNK))
            for syms in np.array_split(np.arange(SIGMA), groups):
                a = np.repeat(syms, live.size)
                n = syms.size
                elo, ehi = backend.occ2_many(a, np.tile(live_lo, n), np.tile(live_hi, n))
                c = C[a]
                dest = a * size + np.tile(live, n)
                lo[dest] = elo + c
                # Ranks are monotone in the position, so a k-mer emptied
                # now gets lo == hi: the emptying lo on both bounds,
                # exactly like the scalar search's early return.
                hi[dest] = ehi + c
                steps[dest] = level + 1
        return cls(k, lo, hi, steps)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return self.lo.size

    def index_of(self, codes: np.ndarray) -> int:
        """Table index of a pattern's length-``k`` suffix (the k-mer the
        backward search consumes first)."""
        tail = np.asarray(codes[-self.k :], dtype=np.int64)
        # tail[j] is consumed at step k-1-j, so its weight is 4**(k-1-j).
        return int(tail[::-1] @ self._rev_weights)

    def lookup(self, codes: np.ndarray) -> tuple[int, int, int]:
        """``(lo, hi, steps)`` of a pattern's length-``k`` suffix."""
        idx = self.index_of(codes)
        return int(self.lo[idx]), int(self.hi[idx]), int(self.steps[idx])

    def indices_from_reversed(self, rev_mat: np.ndarray) -> np.ndarray:
        """Table indices from reversed-code rows (batch search layout).

        ``rev_mat`` has shape ``(nq, k)`` where column ``t`` holds the
        symbol consumed at step ``t`` — exactly the first ``k`` columns
        of ``search_batch``'s right-aligned matrix.
        """
        return np.asarray(rev_mat, dtype=np.int64) @ self._rev_weights

    # -- zero-copy rehydration ----------------------------------------------

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The table as (metadata, named arrays); arrays are not copied."""
        meta = {"version": FTAB_FORMAT_VERSION, "k": self.k}
        arrays = {"lo": self.lo, "hi": self.hi, "steps": self.steps}
        return meta, arrays

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "Ftab":
        """Re-attach exported arrays without copying (memmap/shm safe)."""
        version = int(meta.get("version", 1))
        if version > FTAB_FORMAT_VERSION:
            raise ValueError(
                f"ftab segment version {version} is newer than supported "
                f"({FTAB_FORMAT_VERSION})"
            )
        return cls(int(meta["k"]), arrays["lo"], arrays["hi"], arrays["steps"])

    # -- sizes ---------------------------------------------------------------

    def size_in_bytes(self) -> int:
        return int(self.lo.nbytes + self.hi.nbytes + self.steps.nbytes)

    def __repr__(self) -> str:
        return (
            f"Ftab(k={self.k}, entries={self.lo.size}, "
            f"bytes={self.size_in_bytes()})"
        )


def build_ftab(backend, k: int = DEFAULT_FTAB_K) -> Ftab:
    """Convenience wrapper mirroring the module-level build functions."""
    return Ftab.build(backend, k=k)
