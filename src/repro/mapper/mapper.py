"""Exact-match read mapping over an FM-index (paper workflow step 3).

For every read :math:`\\mathcal{X}`, BWaveR maps both :math:`\\mathcal{X}`
and its reverse complement :math:`\\overline{\\mathcal{X}}` onto the
reference and reports the SA intervals of both strands; positions are
resolved on the host from the suffix array.  :class:`Mapper` implements
that contract once, for a whole batch (DESIGN.md §15): every CPU path and
the FPGA functional model in :mod:`repro.fpga.kernel` map through
:meth:`Mapper.map_reads`, with :meth:`Mapper.map_read` as the scalar
oracle the tests compare it against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.counters import current_counters
from ..index.fm_index import FMIndex, SearchResult
from ..sequence.alphabet import AlphabetError, encode_batch, is_valid, reverse_complement
from ..telemetry import get_telemetry
from .results import REASON_INVALID_BASE, MappedBatch, MappingResult, StrandHit


class Mapper:
    """Both-strand exact mapper bound to an :class:`FMIndex`.

    Reads containing characters outside the alphabet (``N``, IUPAC
    codes, garbage) are *not* searched and *not* fatal: they come back
    unmapped with ``reason == REASON_INVALID_BASE`` and bump the
    ``reads_invalid`` counter, so one bad read cannot kill a batch, a
    pool task, or a web job (DESIGN.md §9).

    Parameters
    ----------
    index:
        The query index (any backend).
    locate:
        When true, SA intervals are resolved to sorted text positions
        (requires the index to carry a locate structure).  Counting-only
        mapping (the FPGA's on-device output) sets this false.
    """

    def __init__(self, index: FMIndex, locate: bool = True):
        self.index = index
        self.locate = bool(locate)
        if self.locate and index.locate_structure is None:
            raise ValueError(
                "locate=True requires an index with a locate structure; "
                "build with locate='full' or 'sampled', or pass locate=False"
            )

    def _positions(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted text positions of every ``[starts[i], ends[i])`` row
        interval, flat with offsets (interval ``i``'s positions are
        ``pos[offsets[i]:offsets[i + 1]]``), resolved with one batch
        locate: one gather for a full SA, one shared LF walk for a
        sampled one."""
        loc = self.index.locate_structure
        assert loc is not None
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.maximum(starts, ends)  # empty intervals locate nothing
        pos, offsets = loc.locate_batch(starts, ends, lf_many=self.index.backend.lf_many)
        # One sort for all intervals: interval i's positions (all below
        # n_rows) are shifted into [i * n_rows, (i + 1) * n_rows), so they
        # sort among themselves and stay in their own slice.
        band = np.repeat(
            np.arange(starts.size, dtype=np.int64) * self.index.n_rows,
            np.diff(offsets),
        )
        return np.sort(pos + band) - band, offsets

    def _count_invalid(self, n: int) -> None:
        """The N-policy's bookkeeping for ``n`` refused reads."""
        current_counters().reads_invalid += n
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "reads_invalid_total",
                "Reads rejected by the alphabet policy (reported unmapped)",
                labelnames=("path",),
            ).inc(n, path="mapper")

    def map_read(self, sequence: str, read_id: int = 0, read_name: str | None = None) -> MappingResult:
        """Map one read and its reverse complement (the scalar oracle of
        :meth:`map_reads`)."""
        valid = is_valid(sequence)
        if valid:
            fwd = self.index.search(sequence)
            rc = self.index.search(reverse_complement(sequence))
        else:
            self._count_invalid(1)
            fwd = rc = SearchResult(start=0, end=0, steps=0)
        hits = [None, None]
        if self.locate:
            pos, off = self._positions(
                np.array([fwd.start, rc.start]), np.array([fwd.end, rc.end])
            )
            hits = [pos[off[0] : off[1]], pos[off[1] : off[2]]]
        return MappingResult(
            read_id=read_id,
            read_name=read_name if read_name is not None else f"read{read_id}",
            length=len(sequence),
            forward=StrandHit(fwd, hits[0]),
            reverse=StrandHit(rc, hits[1]),
            reason=None if valid else REASON_INVALID_BASE,
        )

    def map_reads(
        self,
        sequences: Sequence[str],
        names: Sequence[str] | None = None,
        batch: bool = True,
    ) -> MappedBatch | list[MappingResult]:
        """Map many reads; ``batch=True`` uses the columnar path.

        Results are identical either way (tests enforce it).  The batch
        is encoded once; the valid reads and their reverse complements
        (whose step matrix is ``3 - codes``, no complement strings) go
        through one :meth:`FMIndex.search_batch` and one batch locate,
        and come back as a :class:`MappedBatch` whose per-read objects
        are only built on demand.  ``batch=False`` is the scalar oracle:
        one :meth:`map_read` per read.
        """
        if names is not None and len(names) != len(sequences):
            raise ValueError("names must match sequences in length")
        if not batch:
            return [
                self.map_read(s, read_id=i, read_name=names[i] if names else None)
                for i, s in enumerate(sequences)
            ]
        tel = get_telemetry()
        with tel.span("mapper.map_reads", cat="mapper", n_reads=len(sequences)):
            enc = encode_batch(list(sequences))
            n = len(enc)
            lo = np.zeros((n, 2), dtype=np.int64)
            hi = np.zeros((n, 2), dtype=np.int64)
            steps = np.zeros((n, 2), dtype=np.int64)
            # Alphabet screen: invalid reads skip the search entirely and
            # come back unmapped with a reason code (never an exception).
            rows = np.flatnonzero(enc.valid)
            searched = enc if rows.size == n else enc.take(rows)
            s_lo, s_hi, s_steps = self.index.search_batch(
                searched.with_reverse_complements()
            )
            # search_batch returns the reads' strand, then their complements'.
            lo[rows] = s_lo.reshape(2, -1).T
            hi[rows] = s_hi.reshape(2, -1).T
            steps[rows] = s_steps.reshape(2, -1).T
            if rows.size < n:
                self._count_invalid(n - rows.size)
            positions = offsets = None
            if self.locate:
                # Read-major intervals: read i's strands are 2i and 2i + 1.
                positions, offsets = self._positions(lo.ravel(), hi.ravel())
            result = MappedBatch(
                enc.lengths, enc.valid, lo, hi, steps, positions, offsets, names=names
            )
        if tel.enabled:
            m = tel.metrics
            m.counter("mapper_reads_total", "Reads mapped (both strands)").inc(n)
            m.counter("mapper_mapped_reads_total", "Reads with at least one hit").inc(
                result.n_mapped
            )
        return result

    def count_occurrences(self, sequence: str) -> int:
        """Total exact occurrences on both strands (0 for invalid reads)."""
        try:
            return self.index.count(sequence) + self.index.count(
                reverse_complement(sequence)
            )
        except AlphabetError:
            current_counters().reads_invalid += 1
            return 0
