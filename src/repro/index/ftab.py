"""K-mer jump-start table ("ftab"): precomputed seed intervals.

Bowtie2 and BWA — the software baselines the paper measures against —
skip the first *k* backward-search steps of every query with a lookup
table over every length-*k* string of the DNA alphabet.  This module
brings the same optimization to the whole search stack: for each of the
``4**k`` k-mers, :class:`Ftab` answers the half-open interval ``[lo,
hi)`` *and* the number of symbols the scalar search would have consumed
before its first empty interval.  A query of length ``>= k`` then starts
at step ``k`` with one table lookup, and — because emptied entries
answer the exact ``(lo, steps)`` the stepwise recurrence would have
produced — results are bit-identical with the table on or off (the
differential selfcheck enforces this).

Layout
------
K-mers are indexed by their base-4 value read left to right (``idx =
sum(code[j] * 4**(k-1-j))``), which is also their sort order.  Like
Bowtie2's ``ftab``, the table stores row offsets rather than an interval
per k-mer:

* ``bounds`` — ``uint32``, ``4**k + 1`` entries: ``bounds[j]`` is the
  number of matrix rows whose suffix sorts before k-mer ``j`` and
  ``bounds[4**k] = n_rows``;
* ``steps`` — ``uint8`` symbols consumed: ``k`` for live entries,
  ``s < k`` for entries whose interval empties at step ``s``;
* ``tails`` — ``uint32``, one entry per short suffix ``w`` of the
  text in length order: entry ``i`` is ``j_w = val(w) * 4**(k - |w|)``
  of the suffix of length ``|w| = i + 1`` (``1 <= |w| <= k - 1``, fewer
  when the text is shorter), the first k-mer that has ``w`` as a
  prefix.

A short suffix ``w$`` sorts before every suffix that starts with ``w``
(the sentinel is the smallest symbol), so it is counted in ``bounds[j]``
for every ``j >= j_w`` but belongs to no k-mer's interval.

Lookup
------
With ``s = steps[idx]`` and ``b = (idx mod 4**s) * 4**(k - s)`` — the
first k-mer that starts with the ``s`` symbols the search consumed:

* ``lo = bounds[b]``;
* ``hi = bounds[idx + 1] - #{w : j_w = idx + 1}`` when ``s = k``, else
  ``hi = lo``.

A live k-mer's rows start right after ``bounds[idx]`` and end before the
next k-mer's, less the short suffixes counted at ``idx + 1`` (a suffix
``w`` with ``j_w = idx + 1`` sorts between the two).  An entry emptied
at step ``s`` returns the scalar search's ``lo``: the rows sorting
before its absent ``s``-mer ``Q``, which are the rows before k-mer
``b = Q A...A``.  No short suffix of length ``>= s`` can sit at ``j_w =
b`` — it would start with ``Q``, which does not occur — so no
correction applies to ``lo``.

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
bounds the rank's transient arrays).  Entries already emptied at level
``j`` keep their ``steps`` in their four extensions (the scalar search
never reaches the prepended symbol).  A short reference has few live
k-mers (a 1 kbp text has under 1,000 of the 262,144 9-mers), so the
rank work follows the text, not ``4**k``.

The tails cost no rank call: an ``i``-mer occurs once more than its
four forward extensions together exactly when it is the text's
length-``i`` suffix, so each level finds the previous level's tail by
comparing counts.  ``bounds`` is then one cumulative sum over the level
``k`` counts, the sentinel row and the tails.
"""

from __future__ import annotations

import numpy as np

SIGMA = 4

#: Bowtie2's default seed-table order; 4**10 entries.
DEFAULT_FTAB_K = 10

#: Version tag recorded in the flat-container manifest entry.  Version 1
#: stored an int64 ``(lo, hi)`` pair per k-mer; it is no longer read.
FTAB_FORMAT_VERSION = 2

#: Sanity bound: 4**15 entries is already 5 GiB of bounds and steps.
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

    __slots__ = ("k", "bounds", "steps", "tails", "_rev_weights")

    def __init__(self, k: int, bounds: np.ndarray, steps: np.ndarray, tails: np.ndarray):
        if not 1 <= k <= MAX_FTAB_K:
            raise ValueError(f"ftab k must lie in [1, {MAX_FTAB_K}], got {k}")
        n_entries = SIGMA**k
        if bounds.shape != (n_entries + 1,) or steps.shape != (n_entries,):
            raise ValueError(
                f"ftab arrays must have {n_entries} entries for k={k}"
            )
        if tails.ndim != 1 or tails.size >= k:
            raise ValueError(f"ftab tails must be at most {k - 1} entries")
        self.k = int(k)
        self.bounds = bounds
        self.steps = steps
        self.tails = tails
        # Weight of the symbol consumed at step t (pattern position
        # m-1-t): 4**t.  Used to index from reversed-code layouts.
        self._rev_weights = SIGMA ** np.arange(k, dtype=np.int64)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, backend, k: int = DEFAULT_FTAB_K) -> "Ftab":
        """Precompute the table bottom-up in O(4^k).

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
        occ_top = np.array(
            [backend.occ_many(a, np.array([n_rows]))[0] for a in range(SIGMA)],
            dtype=np.int64,
        )
        lo = C.astype(np.uint32)  # Occ(a, 0) == 0
        hi = (C + occ_top).astype(np.uint32)
        steps = np.ones(SIGMA, dtype=np.uint8)
        tails: list[int] = []
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
                # now gets lo == hi.
                hi[dest] = ehi + c
                steps[dest] = level + 1
            # The length-`level` tail occurs once more than its forward
            # extensions X·c (indices 4 * idx(X) + c) together.
            fwd = live[:, None] * SIGMA + np.arange(SIGMA)
            extended = (hi[fwd] - lo[fwd]).sum(axis=1, dtype=np.int64)
            tail = live[(live_hi - live_lo).astype(np.int64) > extended]
            tails += [int(j) * SIGMA ** (k - level) for j in tail]
        # bounds[j]: rows before k-mer j — every k-mer below j, the
        # sentinel row, and each short suffix w with j_w <= j.
        bounds = np.zeros(SIGMA**k + 1, dtype=np.uint32)
        np.subtract(hi, lo, out=bounds[1:])
        bounds[0] = 1
        for j in tails:
            bounds[j] += 1
        np.cumsum(bounds, dtype=np.uint32, out=bounds)
        return cls(k, bounds, steps, np.array(tails, dtype=np.uint32))

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return self.steps.size

    def index_of(self, codes: np.ndarray) -> int:
        """Table index of a pattern's length-``k`` suffix (the k-mer the
        backward search consumes first)."""
        tail = np.asarray(codes[-self.k :], dtype=np.int64)
        # tail[j] is consumed at step k-1-j, so its weight is 4**(k-1-j).
        return int(tail[::-1] @ self._rev_weights)

    def lookup(self, codes: np.ndarray) -> tuple[int, int, int]:
        """``(lo, hi, steps)`` of a pattern's length-``k`` suffix."""
        lo, hi, steps = self.lookup_many(np.array([self.index_of(codes)]))
        return int(lo[0]), int(hi[0]), int(steps[0])

    def lookup_many(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, steps)`` int64 arrays of the k-mers ``idx``.

        ``lo`` is the bound before the first k-mer that starts with the
        symbols the search consumed; a live entry's ``hi`` is the next
        k-mer's bound less the short suffixes sorting between the two
        (see the module docstring).
        """
        idx = np.asarray(idx, dtype=np.int64)
        steps = self.steps.take(idx).astype(np.int64)
        # b = (idx mod 4**s) * 4**(k - s), with 4**x = 1 << 2x.
        b = idx & ((1 << 2 * steps) - 1)
        b <<= 2 * (self.k - steps)
        lo = self.bounds.take(b).astype(np.int64)
        hi = lo.copy()
        live = np.flatnonzero(steps == self.k)
        nxt = idx[live] + 1
        hi[live] = self.bounds.take(nxt) - self._tails_at(nxt)
        return lo, hi, steps

    def _tails_at(self, j: np.ndarray) -> np.ndarray:
        """``#{w : j_w = j}`` for k-mer indices ``j >= 1``.

        Only all-A suffixes share a ``j_w`` (0): two suffixes ``w`` and
        ``w A...A`` of one text force ``w`` to be all A, so every other
        ``j_w`` is distinct and the count is a membership test.
        """
        return np.isin(j, self.tails)

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
        arrays = {"bounds": self.bounds, "steps": self.steps, "tails": self.tails}
        return meta, arrays

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "Ftab":
        """Re-attach exported arrays without copying (memmap/shm safe).

        Only :data:`FTAB_FORMAT_VERSION` is read: a version-1 table (an
        int64 interval per k-mer) is refused with a rebuild hint.
        """
        version = int(meta.get("version", 1))
        if version > FTAB_FORMAT_VERSION:
            raise ValueError(
                f"ftab segment version {version} is newer than supported "
                f"({FTAB_FORMAT_VERSION})"
            )
        if version < FTAB_FORMAT_VERSION:
            raise ValueError(
                f"ftab format version {version} is no longer read; rebuild "
                "the index with `bwaver-repro index`"
            )
        return cls(int(meta["k"]), arrays["bounds"], arrays["steps"], arrays["tails"])

    # -- sizes ---------------------------------------------------------------

    def size_in_bytes(self) -> int:
        return int(self.bounds.nbytes + self.steps.nbytes + self.tails.nbytes)

    def __repr__(self) -> str:
        return (
            f"Ftab(k={self.k}, entries={len(self)}, "
            f"bytes={self.size_in_bytes()})"
        )


def build_ftab(backend, k: int = DEFAULT_FTAB_K) -> Ftab:
    """Convenience wrapper mirroring the module-level build functions."""
    return Ftab.build(backend, k=k)
