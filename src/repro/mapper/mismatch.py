"""Approximate backward search with bounded mismatches (paper future work).

BWaveR §V lists "extend our mapping design to approximate string
matching" as future work, and §II describes the standard technique: a
modified backward search that branches on substitutions, with cost
exponential in the number of allowed mismatches — which is why production
tools cap it at one or two.

:func:`search_with_mismatches` implements that bounded-backtracking
search: at each step, besides the read's own symbol, it optionally
branches to each other symbol (spending one mismatch).  Results are
deduplicated SA intervals annotated with the number of substitutions, and
the oracle tests compare against a brute-force Hamming scan of the
reference.

This mirrors the two-pass architecture of Arram et al. (paper [7]):
reads that fail exact matching get reprocessed by the slower 1- and
2-mismatch modules; :func:`map_with_rescue` packages exactly that policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import current_counters
from ..index.fm_index import FMIndex
from ..sequence.alphabet import encode, reverse_complement

SIGMA = 4


@dataclass(frozen=True)
class ApproxHit:
    """One SA interval reachable with ``mismatches`` substitutions."""

    start: int
    end: int
    mismatches: int

    @property
    def count(self) -> int:
        return self.end - self.start


def search_with_mismatches(index: FMIndex, pattern, k: int) -> list[ApproxHit]:
    """All SA intervals matching ``pattern`` with at most ``k`` substitutions.

    Depth-first bounded backtracking over the backward-search tree.
    Intervals are pruned as soon as they empty, so the exact-match case
    (``k == 0``) degenerates to the plain search.  Overlapping intervals
    from different substitution patterns are merged per distinct
    ``(start, end)`` keeping the minimal mismatch count.
    """
    if k < 0:
        raise ValueError("mismatch budget must be >= 0")
    codes = encode(pattern) if isinstance(pattern, str) else np.asarray(pattern, dtype=np.uint8)
    backend = index.backend
    n_rows = index.n_rows
    counters = current_counters()
    best: dict[tuple[int, int], int] = {}

    def step(pos: int, lo: int, hi: int, used: int) -> None:
        if lo >= hi:
            return
        if pos < 0:
            key = (lo, hi)
            if key not in best or best[key] > used:
                best[key] = used
            return
        want = int(codes[pos])
        for a in range(SIGMA):
            cost = 0 if a == want else 1
            if used + cost > k:
                continue
            counters.bs_steps += 1
            nlo = backend.count_smaller(a) + backend.occ(a, lo)
            nhi = backend.count_smaller(a) + backend.occ(a, hi)
            step(pos - 1, nlo, nhi, used + cost)

    step(codes.size - 1, 0, n_rows, 0)
    return sorted(
        (ApproxHit(s, e, m) for (s, e), m in best.items()),
        key=lambda h: (h.mismatches, h.start),
    )


def count_with_mismatches(index: FMIndex, pattern, k: int) -> int:
    """Total occurrences within ``k`` substitutions.

    Distinct text positions can be reached through different branch
    paths only if their intervals differ, and backward search assigns
    each matching text substring to exactly one SA interval per symbol
    sequence — summing interval sizes over *distinct intervals* therefore
    counts each occurrence once.
    """
    hits = search_with_mismatches(index, pattern, k)
    # Intervals from different substitution patterns are disjoint (they
    # correspond to different matched strings), so sizes sum directly.
    return sum(h.count for h in hits)


def locate_with_mismatches(index: FMIndex, pattern, k: int) -> list[tuple[int, int]]:
    """Sorted ``(position, mismatches)`` pairs for all approximate hits."""
    if index.locate_structure is None:
        raise RuntimeError("index was built without a locate structure")
    out: list[tuple[int, int]] = []
    for hit in search_with_mismatches(index, pattern, k):
        positions = index.locate_structure.locate_range(
            hit.start, hit.end, lf=index.backend.lf, lf_many=index.backend.lf_many
        )
        out.extend((int(p), hit.mismatches) for p in positions)
    return sorted(out)


@dataclass(frozen=True)
class RescueResult:
    """Outcome of the exact-then-approximate two-pass policy."""

    read_id: int
    strand: str
    mismatches: int
    positions: tuple[int, ...]


def map_with_rescue(index: FMIndex, reads, k: int = 2) -> list[RescueResult | None]:
    """Arram-style two-pass mapping: exact first, k-mismatch rescue second.

    Returns, per read, the best hit found (fewest mismatches, forward
    strand preferred on ties) or ``None`` when even the rescue pass finds
    nothing.
    """
    out: list[RescueResult | None] = []
    for i, read in enumerate(reads):
        best: RescueResult | None = None
        for strand, seq in (("+", read), ("-", reverse_complement(read))):
            # Pass 1 (exact) is the k=0 prefix of the bounded search; the
            # rescue pass only widens the budget when pass 1 came up empty,
            # mirroring the reconfigure-and-retry flow of Arram et al.
            exact = search_with_mismatches(index, seq, 0)
            hits = exact if exact else search_with_mismatches(index, seq, k)
            if not hits:
                continue
            top = hits[0]  # sorted by mismatch count
            positions: tuple[int, ...] = ()
            if index.locate_structure is not None:
                positions = tuple(
                    sorted(
                        int(p)
                        for p in index.locate_structure.locate_range(
                            top.start,
                            top.end,
                            lf=index.backend.lf,
                            lf_many=index.backend.lf_many,
                        )
                    )
                )
            cand = RescueResult(i, strand, top.mismatches, positions)
            if best is None or cand.mismatches < best.mismatches:
                best = cand
        out.append(best)
    return out
