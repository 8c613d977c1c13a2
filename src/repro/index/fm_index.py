"""FM-index backward search (paper §III-A, Eq. 4-5).

:class:`FMIndex` is the repository's central query object: it binds a
rank backend (the succinct :class:`~repro.core.bwt_structure.BWTStructure`
or the checkpointed :class:`~repro.index.occ_table.OccTable`) to a locate
structure (full or sampled suffix array) and exposes ``count``, ``search``
and ``locate``.

Interval convention: ``search`` returns the half-open row interval
``[start, end)`` of Burrows-Wheeler matrix rows whose suffixes begin with
the pattern; the paper's closed, 1-based ``[start, end]`` with
``start(aX) = C(a) + Occ(a, start(X) - 1) + 1`` and
``end(aX) = C(a) + Occ(a, end(X))`` becomes, in 0-based half-open form,

.. math::

   start' = C(a) + Occ(a, start), \\qquad end' = C(a) + Occ(a, end),

and the pattern occurs iff ``start' < end'`` — the same non-emptiness
criterion Ferragina & Manzini prove for ``start <= end``.

Early termination: the search consumes pattern symbols right to left and
stops at the first empty interval.  The number of consumed symbols is
recorded per query — this is the workload statistic behind the paper's
Fig. 7 observation that mapping time scales with the *mapping ratio*
(unmapped reads terminate early).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..core.counters import OpCounters, current_counters
from ..sequence.alphabet import AlphabetError, EncodedBatch, encode, encode_batch
from ..sequence.sampled_sa import FullSA, SampledSA
from ..telemetry import get_telemetry
from .ftab import Ftab

SIGMA = 4


class RankBackend(Protocol):
    """What a rank structure must provide to drive backward search.

    The batch kernels take ``symbols`` as one symbol or an array with one
    symbol per position: ``occ2_many`` (the fused boundary-pair rank)
    answers one search step of every in-flight pattern in a single call,
    and ``lf_many`` one step of every in-flight LF walk.
    """

    n_rows: int

    def occ(self, symbol: int, i: int) -> int: ...
    def occ_many(self, symbols, positions: np.ndarray) -> np.ndarray: ...
    def occ2_many(
        self, symbols, lo_positions: np.ndarray, hi_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...
    def count_smaller(self, symbol: int) -> int: ...
    def lf(self, i: int) -> int: ...
    def lf_many(self, rows: np.ndarray) -> np.ndarray: ...
    def size_in_bytes(self, include_shared: bool = True) -> int: ...


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one backward search.

    ``start``/``end`` delimit the half-open SA row interval; ``steps`` is
    the number of pattern symbols consumed before success or the first
    empty interval (early termination).
    """

    start: int
    end: int
    steps: int

    @property
    def count(self) -> int:
        return max(0, self.end - self.start)

    @property
    def found(self) -> bool:
        return self.end > self.start


class FMIndex:
    """Count/search/locate over a rank backend and a locate structure.

    Parameters
    ----------
    backend:
        Any :class:`RankBackend` — typically a
        :class:`~repro.core.bwt_structure.BWTStructure`.
    locate_structure:
        A :class:`~repro.sequence.sampled_sa.FullSA` (BWaveR's host-side
        choice) or :class:`~repro.sequence.sampled_sa.SampledSA`.
    ftab:
        Optional :class:`~repro.index.ftab.Ftab` jump-start table.  When
        attached, every query of length ``>= ftab.k`` starts at step
        ``k`` with one table read instead of ``k`` backward-search
        steps; results are bit-identical either way.  ``use_ftab``
        toggles it at query time without detaching (``map --no-ftab``).
    """

    def __init__(
        self,
        backend: RankBackend,
        locate_structure: FullSA | SampledSA | None = None,
        ftab: Ftab | None = None,
    ):
        self.backend = backend
        self.locate_structure = locate_structure
        self.ftab = ftab
        self.use_ftab = True

    @property
    def counters(self) -> OpCounters:
        """The innermost open ``CounterScope``'s counts (zeros outside one).

        Count with ``CounterScope()``; this view remains only because
        ``perfbench/trace_launch.py`` reads ``ftab_lookups`` from it
        around :meth:`search_batch`.
        """
        return current_counters()

    @property
    def n_rows(self) -> int:
        return self.backend.n_rows

    # -- pattern normalization ---------------------------------------------------

    @staticmethod
    def _codes(pattern) -> np.ndarray:
        if isinstance(pattern, str):
            return encode(pattern)
        arr = np.asarray(pattern, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= SIGMA):
            raise ValueError("pattern codes must lie in [0, 4)")
        return arr.astype(np.uint8)

    @classmethod
    def _encode_patterns(cls, patterns: Sequence) -> EncodedBatch:
        """Encode a pattern list once (strings through one table lookup;
        code arrays, if any, validated one by one)."""
        patterns = list(patterns)
        if all(isinstance(p, str) for p in patterns):
            batch = encode_batch(patterns)
            if not batch.valid.all():
                encode(patterns[int(np.argmin(batch.valid))])  # raises with position
            return batch
        code_list = [cls._codes(p) for p in patterns]
        offsets = np.zeros(len(code_list) + 1, dtype=np.int64)
        np.cumsum([c.size for c in code_list], out=offsets[1:])
        codes = np.concatenate(code_list) if code_list else np.zeros(0, np.uint8)
        return EncodedBatch(
            codes=codes.astype(np.int8),
            offsets=offsets,
            valid=np.ones(len(code_list), dtype=bool),
        )

    # -- core queries ---------------------------------------------------------------

    def search(self, pattern) -> SearchResult:
        """Backward search; returns the SA interval of the pattern.

        Empty-pattern semantics (DESIGN.md §9): the empty pattern occurs
        once at every *text* position, so its interval is the full matrix
        minus the sentinel row — ``[1, n_rows)`` — giving
        ``count("") == len(text)`` and ``locate("")`` the positions
        ``0..len(text)-1``.  The recurrence's base case for non-empty
        patterns is still the full ``[0, n_rows)`` interval.
        """
        codes = self._codes(pattern)
        counters = current_counters()
        counters.queries += 1
        if codes.size == 0:
            return SearchResult(start=min(1, self.n_rows), end=self.n_rows, steps=0)
        lo, hi = 0, self.n_rows
        steps = 0
        backend = self.backend
        tail = codes[::-1]
        ftab = self.ftab if self.use_ftab else None
        if ftab is not None and codes.size >= ftab.k:
            # Jump-start: one table read replaces the first k steps.  The
            # entry carries the exact (lo, hi, steps) the stepwise
            # recurrence would produce, including early-emptied k-mers.
            lo, hi, steps = ftab.lookup(codes)
            counters.ftab_lookups += 1
            tel = get_telemetry()
            if tel.enabled:
                m = tel.metrics
                m.counter(
                    "ftab_hits_total", "Queries jump-started from the k-mer table"
                ).inc()
                m.histogram(
                    "ftab_steps_saved",
                    "Backward-search steps resolved per k-mer table hit",
                ).observe(float(steps))
            if lo >= hi:
                return SearchResult(start=lo, end=lo, steps=steps)
            tail = tail[ftab.k :]
        for a in tail:
            a = int(a)
            lo = backend.count_smaller(a) + backend.occ(a, lo)
            hi = backend.count_smaller(a) + backend.occ(a, hi)
            steps += 1
            counters.bs_steps += 1
            if lo >= hi:
                return SearchResult(start=lo, end=lo, steps=steps)
        return SearchResult(start=lo, end=hi, steps=steps)

    def count(self, pattern) -> int:
        """Number of occurrences of ``pattern`` in the reference."""
        return self.search(pattern).count

    def locate(self, pattern) -> np.ndarray:
        """Sorted text positions of all occurrences of ``pattern``."""
        if self.locate_structure is None:
            raise RuntimeError("this index was built without a locate structure")
        res = self.search(pattern)
        if not res.found:
            return np.zeros(0, dtype=np.int64)
        positions, _ = self.locate_structure.locate_batch(
            [res.start], [res.end], lf_many=self.backend.lf_many
        )
        return np.sort(positions)

    # -- batch (vectorized) search -------------------------------------------------

    def search_batch(
        self, patterns: Sequence | EncodedBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward search over many patterns with per-step vectorization.

        ``patterns`` is a list (strings or code arrays) or an
        :class:`~repro.sequence.alphabet.EncodedBatch` — the mapper's
        batch, encoded once and optionally standing for both strands.
        Patterns may have different lengths; each query is advanced until
        its own symbols run out or its interval empties.  Returns
        ``(starts, ends, steps)`` arrays.  Results are identical to
        calling :meth:`search` per pattern (tests enforce this); the
        batching exists because each step answers the ``Occ`` queries of
        every in-flight pattern, whatever its symbol, in one fused rank
        call — the idiomatic numpy shape of the FPGA's
        many-queries-in-flight pipeline, where every slot does one rank
        per cycle.
        """
        if isinstance(patterns, EncodedBatch):
            batch = patterns
            if not batch.valid.all():
                raise AlphabetError(
                    f"pattern {int(np.argmin(batch.valid))} has a character "
                    "outside the alphabet"
                )
        else:
            batch = self._encode_patterns(patterns)
        # Right-aligned code matrix: column t holds the symbol consumed at
        # step t (patterns are consumed right to left).
        mat, lengths = batch.step_matrix()
        nq = lengths.size
        counters = current_counters()
        counters.queries += nq
        max_len = mat.shape[1]
        lo = np.zeros(nq, dtype=np.int64)
        hi = np.full(nq, self.n_rows, dtype=np.int64)
        # Empty patterns resolve immediately to the sentinel-free interval
        # [1, n_rows) — one match per text position, same as `search`.
        lo[lengths == 0] = min(1, self.n_rows)
        steps = np.zeros(nq, dtype=np.int64)
        active = lengths > 0
        backend = self.backend
        # K-mer jump-start: queries of length >= k read their first-k
        # interval (and exact step count) from the table and join the
        # step loop at column k; shorter queries start at column 0.
        start_col = np.zeros(nq, dtype=np.int64)
        ftab = self.ftab if self.use_ftab else None
        ftab_steps: np.ndarray | None = None
        if ftab is not None and max_len >= ftab.k:
            prim = np.flatnonzero(lengths >= ftab.k)
            if prim.size:
                tidx = ftab.indices_from_reversed(mat[prim, : ftab.k])
                lo[prim] = ftab.lo[tidx]
                hi[prim] = ftab.hi[tidx]
                ftab_steps = ftab.steps[tidx].astype(np.int64)
                steps[prim] = ftab_steps
                # Entries emptied inside the table region are finished.
                active[prim[lo[prim] >= hi[prim]]] = False
                start_col[prim] = ftab.k
                counters.ftab_lookups += int(prim.size)
        # count_smaller is invariant per symbol — hoist it out of the
        # step loop instead of re-reading C every (step, symbol) pair.
        csmall = np.array(
            [backend.count_smaller(a) for a in range(SIGMA)], dtype=np.int64
        )
        executed = 0
        # In-flight patterns, compacted as they finish: each step makes
        # one fused rank call over all of them, each with its own symbol.
        live = np.flatnonzero(active)
        t = int(start_col[live].min()) if live.size else max_len
        while t < max_len:
            live = live[(lengths[live] > t) & (lo[live] < hi[live])]
            if not live.size:
                break
            cur = live[start_col[live] <= t]
            if cur.size:
                a = mat[cur, t].astype(np.int64)
                rlo, rhi = backend.occ2_many(a, lo[cur], hi[cur])
                new_lo = csmall[a] + rlo
                new_hi = csmall[a] + rhi
                emptied = new_lo >= new_hi
                new_hi[emptied] = new_lo[emptied]
                lo[cur] = new_lo
                hi[cur] = new_hi
                steps[cur] += 1
                executed += int(cur.size)
            t += 1
        counters.bs_steps += executed
        tel = get_telemetry()
        if tel.enabled:
            m = tel.metrics
            m.counter("fm_search_batches_total", "Vectorized search batches").inc()
            m.counter("fm_queries_total", "Queries through batched search").inc(nq)
            m.counter(
                "fm_bs_steps_total", "Backward-search steps (batched path)"
            ).inc(executed)
            if ftab_steps is not None and ftab_steps.size:
                m.counter(
                    "ftab_hits_total", "Queries jump-started from the k-mer table"
                ).inc(int(ftab_steps.size))
                m.histogram(
                    "ftab_steps_saved",
                    "Backward-search steps resolved per k-mer table hit",
                ).observe_many(ftab_steps)
        return lo, hi, steps

    def count_batch(self, patterns: Sequence) -> np.ndarray:
        lo, hi, _ = self.search_batch(patterns)
        return np.maximum(hi - lo, 0)

    # -- sizes -------------------------------------------------------------------------

    def size_in_bytes(self, include_locate: bool = False) -> int:
        total = self.backend.size_in_bytes()
        if include_locate and self.locate_structure is not None:
            total += self.locate_structure.size_in_bytes()
        return total

    def __repr__(self) -> str:
        return (
            f"FMIndex(rows={self.n_rows}, backend={type(self.backend).__name__}, "
            f"locate={type(self.locate_structure).__name__ if self.locate_structure else None})"
        )
