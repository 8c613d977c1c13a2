"""Exact-match read mapping over an FM-index (paper workflow step 3).

For every read :math:`\\mathcal{X}`, BWaveR maps both :math:`\\mathcal{X}`
and its reverse complement :math:`\\overline{\\mathcal{X}}` onto the
reference and reports the SA intervals of both strands; positions are
resolved on the host from the suffix array.  :class:`Mapper` implements
that contract on the software side — the FPGA kernel in
:mod:`repro.fpga.kernel` implements the same contract and the tests assert
bit-identical intervals between the two.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..index.fm_index import FMIndex, SearchResult
from ..sequence.alphabet import AlphabetError, is_valid, reverse_complement
from ..telemetry import get_telemetry
from .results import REASON_INVALID_BASE, MappingResult, StrandHit


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

    def _positions(self, starts: np.ndarray, ends: np.ndarray) -> list:
        """Sorted text positions of every ``[starts[i], ends[i])`` row
        interval (``None`` each when not locating), resolved with one
        batch locate: one gather for a full SA, one shared LF walk for a
        sampled one."""
        if not self.locate:
            return [None] * len(starts)
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
        pos = np.sort(pos + band) - band
        return np.split(pos, offsets[1:-1])

    def _invalid_result(
        self, sequence: str, read_id: int, read_name: str | None
    ) -> MappingResult:
        """The N-policy outcome: unmapped, with a reason code."""
        self.index.counters.reads_invalid += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "reads_invalid_total",
                "Reads rejected by the alphabet policy (reported unmapped)",
                labelnames=("path",),
            ).inc(path="mapper")
        empty = SearchResult(start=0, end=0, steps=0)
        pos = np.zeros(0, dtype=np.int64) if self.locate else None
        return MappingResult(
            read_id=read_id,
            read_name=read_name if read_name is not None else f"read{read_id}",
            length=len(sequence),
            forward=StrandHit(empty, pos),
            reverse=StrandHit(empty, pos),
            reason=REASON_INVALID_BASE,
        )

    def map_read(self, sequence: str, read_id: int = 0, read_name: str | None = None) -> MappingResult:
        """Map one read and its reverse complement."""
        try:
            fwd = self.index.search(sequence)
            rc = self.index.search(reverse_complement(sequence))
        except AlphabetError:
            return self._invalid_result(sequence, read_id, read_name)
        fwd_pos, rc_pos = self._positions(
            np.array([fwd.start, rc.start]), np.array([fwd.end, rc.end])
        )
        return MappingResult(
            read_id=read_id,
            read_name=read_name if read_name is not None else f"read{read_id}",
            length=len(sequence),
            forward=StrandHit(fwd, fwd_pos),
            reverse=StrandHit(rc, rc_pos),
        )

    def map_reads(
        self,
        sequences: Sequence[str],
        names: Sequence[str] | None = None,
        batch: bool = True,
    ) -> list[MappingResult]:
        """Map many reads; ``batch=True`` uses the vectorized search path.

        Results are identical either way (tests enforce it); the batched
        path groups the per-step rank queries of all live reads, which is
        how the numpy implementation approximates the FPGA's
        many-in-flight execution.
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
            all_seqs = list(sequences)
            # Alphabet screen: invalid reads skip the search entirely and
            # come back unmapped with a reason code (never an exception).
            valid_idx = [i for i, s in enumerate(all_seqs) if is_valid(s)]
            seqs = [all_seqs[i] for i in valid_idx]
            rcs = [reverse_complement(s) for s in seqs]
            lo, hi, steps = self.index.search_batch(seqs + rcs)
            positions = self._positions(lo, hi)
            n = len(seqs)
            out: list[MappingResult | None] = [None] * len(all_seqs)
            for j, i in enumerate(valid_idx):
                fwd = SearchResult(start=int(lo[j]), end=int(hi[j]), steps=int(steps[j]))
                rc = SearchResult(
                    start=int(lo[n + j]), end=int(hi[n + j]), steps=int(steps[n + j])
                )
                out[i] = MappingResult(
                    read_id=i,
                    read_name=names[i] if names else f"read{i}",
                    length=len(all_seqs[i]),
                    forward=StrandHit(fwd, positions[j]),
                    reverse=StrandHit(rc, positions[n + j]),
                )
            for i, r in enumerate(out):
                if r is None:
                    out[i] = self._invalid_result(
                        all_seqs[i], i, names[i] if names else None
                    )
        results = [r for r in out if r is not None]
        if tel.enabled:
            m = tel.metrics
            m.counter("mapper_reads_total", "Reads mapped (both strands)").inc(
                len(all_seqs)
            )
            m.counter("mapper_mapped_reads_total", "Reads with at least one hit").inc(
                sum(1 for r in results if r.mapped)
            )
        return results

    def count_occurrences(self, sequence: str) -> int:
        """Total exact occurrences on both strands (0 for invalid reads)."""
        try:
            return self.index.count(sequence) + self.index.count(
                reverse_complement(sequence)
            )
        except AlphabetError:
            self.index.counters.reads_invalid += 1
            return 0
