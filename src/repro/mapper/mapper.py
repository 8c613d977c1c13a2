"""Exact-match read mapping over an FM-index (paper workflow step 3).

For every read :math:`\\mathcal{X}`, BWaveR maps both :math:`\\mathcal{X}`
and its reverse complement :math:`\\overline{\\mathcal{X}}` onto the
reference and reports the SA intervals of both strands; positions are
resolved on the host from the suffix array.  :class:`Mapper` implements
that contract once, for a whole batch (DESIGN.md §15): every CPU path and
the FPGA functional model in :mod:`repro.fpga.kernel` map through
:meth:`Mapper.map_reads`, with :meth:`Mapper.map_read` as the scalar
oracle the tests compare it against.  :class:`StackedMapper` maps one
batch against several indexes (a catalog's resident shards) with one
:meth:`Mapper.map_reads` per stack group (DESIGN.md §13).
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
        self, starts: np.ndarray, ends: np.ndarray, seg: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted text positions of every ``[starts[i], ends[i])`` row
        interval (of segment ``seg[i]`` on a stacked index), flat with
        offsets (interval ``i``'s positions are
        ``pos[offsets[i]:offsets[i + 1]]``), resolved with one batch
        locate: one gather for a full SA, one shared LF walk for a
        sampled one."""
        loc = self.index.locate_structure
        assert loc is not None
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.maximum(starts, ends)  # empty intervals locate nothing
        pos, offsets = loc.locate_batch(
            starts, ends, lf_many=self.index.backend.lf_many, seg=seg
        )
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
        segments: Sequence[int] | None = None,
    ) -> MappedBatch | list[MappedBatch] | list[MappingResult]:
        """Map many reads; ``batch=True`` uses the columnar path.

        Results are identical either way (tests enforce it).  The batch
        is encoded once; the valid reads and their reverse complements
        (whose step matrix is ``3 - codes``, no complement strings) go
        through one :meth:`FMIndex.search_batch` and one batch locate,
        and come back as a :class:`MappedBatch` whose per-read objects
        are only built on demand.  ``batch=False`` is the scalar oracle:
        one :meth:`map_read` per read.

        Over a :class:`~repro.index.stacked.StackedIndex` the same search
        and locate cover every segment of ``segments`` (default: all, in
        order), and the result is one :class:`MappedBatch` per listed
        segment.
        """
        if names is not None and len(names) != len(sequences):
            raise ValueError("names must match sequences in length")
        if not batch:
            return [
                self.map_read(s, read_id=i, read_name=names[i] if names else None)
                for i, s in enumerate(sequences)
            ]
        stacked = self.index.n_segments > 1
        if segments is None:
            segments = range(self.index.n_segments)
        n_seg = len(segments)
        tel = get_telemetry()
        with tel.span("mapper.map_reads", cat="mapper", n_reads=len(sequences)):
            enc = encode_batch(list(sequences))
            n = len(enc)
            lo = np.zeros((n_seg, n, 2), dtype=np.int64)
            hi = np.zeros((n_seg, n, 2), dtype=np.int64)
            steps = np.zeros((n_seg, n, 2), dtype=np.int64)
            # Alphabet screen: invalid reads skip the search entirely and
            # come back unmapped with a reason code (never an exception).
            rows = np.flatnonzero(enc.valid)
            searched = enc if rows.size == n else enc.take(rows)
            s_lo, s_hi, s_steps = self.index.search_batch(
                searched.with_reverse_complements(), segments if stacked else None
            )
            # Per segment, search_batch returns the reads' strand, then
            # their complements'.
            lo[:, rows] = s_lo.reshape(n_seg, 2, -1).transpose(0, 2, 1)
            hi[:, rows] = s_hi.reshape(n_seg, 2, -1).transpose(0, 2, 1)
            steps[:, rows] = s_steps.reshape(n_seg, 2, -1).transpose(0, 2, 1)
            if rows.size < n:
                self._count_invalid(n_seg * (n - rows.size))
            positions = offsets = None
            if self.locate:
                # Segment-major, read-major intervals: read i's strands in
                # the j-th listed segment are 2 * (j * n + i) and the one
                # after.
                seg = np.repeat(np.asarray(segments), 2 * n) if stacked else None
                positions, offsets = self._positions(lo.ravel(), hi.ravel(), seg)
            results = []
            for s in range(n_seg):
                pos = off = None
                if positions is not None:
                    off = offsets[2 * n * s : 2 * n * (s + 1) + 1]
                    pos = positions[off[0] : off[-1]]
                    off = off - off[0]
                results.append(
                    MappedBatch(
                        enc.lengths, enc.valid, lo[s], hi[s], steps[s], pos, off,
                        names=names,
                    )
                )
        if tel.enabled:
            m = tel.metrics
            m.counter("mapper_reads_total", "Reads mapped (both strands)").inc(n_seg * n)
            m.counter("mapper_mapped_reads_total", "Reads with at least one hit").inc(
                sum(r.n_mapped for r in results)
            )
        return results if stacked else results[0]

    def count_occurrences(self, sequence: str) -> int:
        """Total exact occurrences on both strands (0 for invalid reads)."""
        try:
            return self.index.count(sequence) + self.index.count(
                reverse_complement(sequence)
            )
        except AlphabetError:
            current_counters().reads_invalid += 1
            return 0


class StackedMapper:
    """One mapping job over a set of indexes.

    Indexes whose kernels stack (:func:`~repro.index.stacked.stack_key`)
    form one :class:`~repro.index.stacked.StackedIndex` — one step loop
    and one locate walk for all of them; each other index maps on its
    own.  :meth:`map_reads` maps any members of the set: one
    :class:`MappedBatch` per member named, each equal to
    ``Mapper(index).map_reads`` of that index alone, and the counter
    charges of the call equal the sum of those calls'.  A member left
    out costs nothing, so one stack over a catalog's resident shards
    serves every shard subset.
    """

    def __init__(self, indexes: Sequence[FMIndex]):
        # Loaded here, not at import: single-index mapping (the `map`
        # launch) never stacks.
        from ..index.stacked import StackedIndex, stack_groups

        self.n_indexes = len(indexes)
        self.groups = [
            (ids, indexes[ids[0]] if len(ids) == 1 else StackedIndex([indexes[i] for i in ids]))
            for ids in stack_groups(indexes)
        ]
        #: Member -> (its group, its segment in the group's index).
        self._where = {
            i: (g, j) for g, (ids, _) in enumerate(self.groups) for j, i in enumerate(ids)
        }

    def map_reads(
        self,
        sequences: Sequence[str],
        members: Sequence[int] | None = None,
        locate: bool = True,
    ) -> list[MappedBatch]:
        """One batch per index in ``members`` (default: all, in order)."""
        if members is None:
            members = range(self.n_indexes)
        wanted: dict[int, set[int]] = {}
        for i in members:
            g, j = self._where[i]
            wanted.setdefault(g, set()).add(j)
        got: dict[int, MappedBatch] = {}
        for g, segments in sorted(wanted.items()):
            ids, index = self.groups[g]
            mapper = Mapper(index, locate=locate)
            if len(ids) == 1:
                got[ids[0]] = mapper.map_reads(sequences)
                continue
            segments = sorted(segments)
            for j, batch in zip(segments, mapper.map_reads(sequences, segments=segments)):
                got[ids[j]] = batch
        return [got[i] for i in members]
