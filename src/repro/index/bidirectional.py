"""Bidirectional FM-index: extend matches in either direction.

The plain FM-index extends matches only leftward (backward search).
The bidirectional variant (Lam et al. 2009's 2BWT, the engine inside
SOAP2 and modern aligners) maintains *synchronized* intervals over the
BWT of the text and of its reverse, allowing a match to grow on either
end.  That unlocks the **pigeonhole** strategy for approximate matching
the paper lists as future work: for one substitution, split the read in
half — the error lies in one half, so the other half matches exactly
and can be extended across the error from the middle outward, pruning
enormously compared to blind backtracking
(``benchmarks/bench_ablation_mismatch.py`` quantifies the step savings).

Synchronization invariant: if ``[lo, hi)`` is the SA interval of pattern
``P`` in the text ``T``, then ``[lo_r, hi_r)`` is the SA interval of
``reverse(P)`` in ``reverse(T)`` and ``hi - lo == hi_r - lo_r``.

* ``extend_left(a)`` updates ``[lo, hi)`` by ordinary backward search;
  the reverse interval shifts by the count of occurrences of symbols
  *smaller than* ``a`` within the current interval (computed with one
  Occ pair per smaller symbol) and shrinks to the new width.
* ``extend_right(a)`` is the mirror image, driven by the reverse index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import current_counters
from ..sequence.alphabet import encode
from .builder import build_index

SIGMA = 4


@dataclass(frozen=True)
class BiInterval:
    """Synchronized (forward, reverse) SA intervals of one pattern."""

    lo: int
    hi: int
    lo_r: int
    hi_r: int

    @property
    def count(self) -> int:
        return max(0, self.hi - self.lo)

    @property
    def empty(self) -> bool:
        return self.hi <= self.lo


class BidirectionalFMIndex:
    """Two synchronized FM-indexes (text and reversed text).

    Parameters
    ----------
    text:
        The reference string (or 2-bit code array).
    b, sf:
        RRR parameters for both underlying structures.
    ftab_k:
        When set, both underlying indexes precompute k-mer jump-start
        tables and :meth:`search` seeds its synchronized interval from
        one table read per direction instead of ``k`` extension steps.
    """

    def __init__(self, text, b: int = 15, sf: int = 50,
                 ftab_k: int | None = None):
        codes = encode(text) if isinstance(text, str) else np.asarray(text, dtype=np.uint8)
        self.fwd, _ = build_index(codes, b=b, sf=sf, locate="full", ftab_k=ftab_k)
        self.rev, _ = build_index(codes[::-1].copy(), b=b, sf=sf, locate="none",
                                  ftab_k=ftab_k)
        self.n_rows = self.fwd.n_rows

    # -- interval algebra ---------------------------------------------------------

    def whole(self) -> BiInterval:
        """The empty-pattern interval (every row, both directions)."""
        return BiInterval(0, self.n_rows, 0, self.n_rows)

    def extend_left(self, iv: BiInterval, a: int) -> BiInterval:
        """Prepend symbol ``a``: ``P -> aP``."""
        if not 0 <= a < SIGMA:
            raise ValueError(f"symbol {a} outside DNA alphabet")
        if iv.empty:
            return BiInterval(iv.lo, iv.lo, iv.lo_r, iv.lo_r)
        current_counters().bs_steps += 1
        backend = self.fwd.backend
        lo = backend.count_smaller(a) + backend.occ(a, iv.lo)
        hi = backend.count_smaller(a) + backend.occ(a, iv.hi)
        # Occurrences of strictly-smaller symbols inside [iv.lo, iv.hi)
        # shift the reverse interval's start (plus the sentinel if the
        # interval contains the row whose BWT char is $).
        smaller = 0
        for c in range(a):
            smaller += backend.occ(c, iv.hi) - backend.occ(c, iv.lo)
        # The sentinel sorts before every symbol; its (single) occurrence
        # inside the interval also shifts the reverse start.
        if iv.lo <= backend.dollar_pos < iv.hi:
            smaller += 1
        lo_r = iv.lo_r + smaller
        hi_r = lo_r + (hi - lo)
        return BiInterval(lo, hi, lo_r, hi_r)

    def extend_right(self, iv: BiInterval, a: int) -> BiInterval:
        """Append symbol ``a``: ``P -> Pa`` (mirror via the reverse index)."""
        if not 0 <= a < SIGMA:
            raise ValueError(f"symbol {a} outside DNA alphabet")
        if iv.empty:
            return BiInterval(iv.lo, iv.lo, iv.lo_r, iv.lo_r)
        current_counters().bs_steps += 1
        backend = self.rev.backend
        lo_r = backend.count_smaller(a) + backend.occ(a, iv.lo_r)
        hi_r = backend.count_smaller(a) + backend.occ(a, iv.hi_r)
        smaller = 0
        for c in range(a):
            smaller += backend.occ(c, iv.hi_r) - backend.occ(c, iv.lo_r)
        d = backend.dollar_pos
        if iv.lo_r <= d < iv.hi_r:
            smaller += 1
        lo = iv.lo + smaller
        hi = lo + (hi_r - lo_r)
        return BiInterval(lo, hi, lo_r, hi_r)

    # -- searches --------------------------------------------------------------------

    def empty_pattern(self) -> BiInterval:
        """The empty pattern's interval: every row but the sentinel's, in
        both orientations (DESIGN.md §9) — ``count == len(text)``."""
        lo = min(1, self.n_rows)
        return BiInterval(lo, self.n_rows, lo, self.n_rows)

    def search(self, pattern) -> BiInterval:
        """Exact search (leftward), returning the synchronized interval.

        With jump-start tables attached (``ftab_k``), the length-``k``
        suffix's forward interval comes from the forward table and the
        reverse interval of the *reversed* suffix from the reverse
        table — the two are synchronized by the invariant that equal
        strings have equal counts in text and reversed text.  Entries
        that emptied inside the seed region fall back to the stepwise
        chain, so results stay bit-identical with and without tables.
        """
        codes = encode(pattern) if isinstance(pattern, str) else np.asarray(pattern)
        if codes.size == 0:
            return self.empty_pattern()
        ftab_f = self.fwd.ftab if self.fwd.use_ftab else None
        ftab_r = self.rev.ftab if self.rev.use_ftab else None
        if (
            ftab_f is not None
            and ftab_r is not None
            and ftab_r.k == ftab_f.k
            and codes.size >= ftab_f.k
        ):
            k = ftab_f.k
            lo, hi, st = ftab_f.lookup(codes)
            if st == k and lo < hi:
                rev_kmer = np.ascontiguousarray(codes[-k:][::-1])
                lo_r, hi_r, st_r = ftab_r.lookup(rev_kmer)
                if st_r == k and hi_r - lo_r == hi - lo:
                    current_counters().ftab_lookups += 2
                    iv = BiInterval(lo, hi, lo_r, hi_r)
                    for a in codes[:-k][::-1]:
                        iv = self.extend_left(iv, int(a))
                        if iv.empty:
                            break
                    return iv
        iv = self.whole()
        for a in codes[::-1]:
            iv = self.extend_left(iv, int(a))
            if iv.empty:
                break
        return iv

    def search_from_middle(self, pattern, split: int | None = None) -> BiInterval:
        """Exact search growing outward from ``pattern[split]``.

        Matches the plain search's interval exactly (tests enforce it);
        exists because outward growth is the primitive the pigeonhole
        strategy composes.
        """
        codes = encode(pattern) if isinstance(pattern, str) else np.asarray(pattern)
        m = int(codes.size)
        if m == 0:
            return self.empty_pattern()
        split = m // 2 if split is None else split
        if not 0 <= split < m:
            raise ValueError(f"split {split} out of range [0, {m})")
        iv = self.extend_left(self.whole(), int(codes[split]))
        for j in range(split + 1, m):
            iv = self.extend_right(iv, int(codes[j]))
            if iv.empty:
                return iv
        for j in range(split - 1, -1, -1):
            iv = self.extend_left(iv, int(codes[j]))
            if iv.empty:
                return iv
        return iv

    def locate(self, iv: BiInterval) -> np.ndarray:
        """Text positions of a forward interval."""
        if iv.empty:
            return np.zeros(0, dtype=np.int64)
        loc = self.fwd.locate_structure
        backend = self.fwd.backend
        return np.sort(
            loc.locate_range(iv.lo, iv.hi, lf=backend.lf, lf_many=backend.lf_many)
        )

    # -- pigeonhole 1-mismatch search ------------------------------------------------

    def search_one_mismatch(self, pattern) -> list[tuple[BiInterval, int]]:
        """All intervals matching with exactly 0 or 1 substitution.

        Pigeonhole over two halves: case A anchors the exact right half
        and extends left, substituting at each left position; case B
        anchors the exact left half and extends right.  Returns
        ``(interval, mismatch_position)`` pairs with ``-1`` marking the
        exact match; intervals are distinct by construction (each matched
        string differs).
        """
        codes = encode(pattern) if isinstance(pattern, str) else np.asarray(pattern)
        m = int(codes.size)
        out: list[tuple[BiInterval, int]] = []
        exact = self.search(codes)
        if not exact.empty:
            out.append((exact, -1))
        if m < 2:
            # Single symbol: substitutions are the other three symbols.
            for a in range(SIGMA):
                if m == 1 and a != int(codes[0]):
                    iv = self.extend_left(self.whole(), a)
                    if not iv.empty:
                        out.append((iv, 0))
            return out
        split = m // 2
        # Case A: error in the left half [0, split); right half exact.
        iv0 = self.whole()
        right_exact = iv0
        for j in range(m - 1, split - 1, -1):
            right_exact = self.extend_left(right_exact, int(codes[j]))
            if right_exact.empty:
                break
        if not right_exact.empty:
            self._branch_left(codes, split - 1, right_exact, out)
        # Case B: error in the right half [split, m); left half exact.
        left_exact = self.extend_left(self.whole(), int(codes[0]))
        for j in range(1, split):
            if left_exact.empty:
                break
            left_exact = self.extend_right(left_exact, int(codes[j]))
        if not left_exact.empty:
            self._branch_right(codes, split, left_exact, out)
        return out

    def _branch_left(self, codes, pos, iv, out):
        """Extend leftward from ``pos`` down to 0, spending one mismatch.

        Exact extensions descend; the first (and only) substitution at
        position ``j`` completes the remaining prefix exactly.  The
        all-exact path is the 0-mismatch match, reported by ``search``.
        """
        stack = [(pos, iv)]
        while stack:
            j, cur = stack.pop()
            if j < 0:
                continue
            want = int(codes[j])
            for a in range(SIGMA):
                nxt = self.extend_left(cur, a)
                if nxt.empty:
                    continue
                if a == want:
                    stack.append((j - 1, nxt))
                else:
                    done = nxt
                    ok = True
                    for jj in range(j - 1, -1, -1):
                        done = self.extend_left(done, int(codes[jj]))
                        if done.empty:
                            ok = False
                            break
                    if ok:
                        out.append((done, j))

    def _branch_right(self, codes, pos, iv, out):
        """Extend rightward from ``pos`` to the end, spending one mismatch."""
        m = int(np.asarray(codes).size)
        stack = [(pos, iv)]
        while stack:
            j, cur = stack.pop()
            if j >= m:
                continue
            want = int(codes[j])
            for a in range(SIGMA):
                nxt = self.extend_right(cur, a)
                if nxt.empty:
                    continue
                if a == want:
                    if j + 1 < m:
                        stack.append((j + 1, nxt))
                    # Exact completion of the right half is the 0-mismatch
                    # case, already reported by `search`.
                else:
                    done = nxt
                    ok = True
                    for jj in range(j + 1, m):
                        done = self.extend_right(done, int(codes[jj]))
                        if done.empty:
                            ok = False
                            break
                    if ok:
                        out.append((done, j))

    def size_in_bytes(self) -> int:
        """Both structures (the bidirectional index costs ~2x one)."""
        return self.fwd.backend.size_in_bytes() + self.rev.backend.size_in_bytes()
