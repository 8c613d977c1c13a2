"""Multi-sequence references: one index over many named sequences.

Real references are multi-FASTA (chromosomes, contigs, plasmids), while
the core FM-index addresses a single text.  The standard construction —
used by BWA and Bowtie2, and adopted here — concatenates the sequences
and indexes the concatenation, then:

* translates global hit positions back to ``(sequence, local position)``
  through the offset table, and
* **filters hits that span a sequence boundary** (an artifact of the
  concatenation — such a match does not exist in any real sequence).

Because spanning hits must be removed, ``count`` on a multi-reference
index necessarily locates; the pure-counting fast path of the
single-sequence index remains available per record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.counters import current_counters
from ..sequence.alphabet import is_valid, reverse_complement
from .builder import Backend, build_index


@dataclass(frozen=True)
class ReferenceHit:
    """One occurrence localized to a named sequence."""

    name: str
    position: int
    strand: str  # '+' or '-'


@dataclass(frozen=True)
class MultiRefMapping:
    """All valid occurrences of one read across the reference set."""

    read_id: int
    hits: tuple[ReferenceHit, ...]

    @property
    def mapped(self) -> bool:
        return bool(self.hits)


class MultiReferenceIndex:
    """FM-index over a set of named sequences.

    Parameters
    ----------
    records:
        ``(name, sequence)`` pairs (or objects with ``.name`` and
        ``.sequence``, e.g. :class:`~repro.io.fasta.FastaRecord`).
    b, sf, backend:
        Forwarded to :func:`~repro.index.builder.build_index`.
    """

    def __init__(
        self,
        records: Sequence,
        b: int = 15,
        sf: int = 50,
        backend: Backend = "rrr",
    ):
        pairs = []
        for rec in records:
            if hasattr(rec, "name") and hasattr(rec, "sequence"):
                pairs.append((rec.name, rec.sequence))
            else:
                name, seq = rec
                pairs.append((str(name), str(seq)))
        if not pairs:
            raise ValueError("at least one reference sequence is required")
        names = [n for n, _ in pairs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate sequence names: {dupes}")
        if any(not s for _, s in pairs):
            empty = [n for n, s in pairs if not s]
            raise ValueError(f"empty sequences: {empty}")
        self.names: tuple[str, ...] = tuple(names)
        # name -> registration ordinal; hit ordering and coordinate
        # translation are O(1) per lookup instead of O(S) list scans
        # (the serving router reuses the same scheme for cross-shard
        # merge ordering).
        self.ordinals: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.lengths = np.array([len(s) for _, s in pairs], dtype=np.int64)
        # offsets[i] = global start of sequence i; final entry = total.
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths)))
        concatenated = "".join(s for _, s in pairs)
        self.index, self.build_report = build_index(
            concatenated, b=b, sf=sf, backend=backend, locate="full"
        )

    # -- coordinate translation ---------------------------------------------------

    def to_global(self, name: str, position: int) -> int:
        """``(sequence, local)`` → global concatenation coordinate."""
        try:
            idx = self.ordinals[name]
        except KeyError:
            raise KeyError(f"unknown sequence {name!r}") from None
        if not 0 <= position < self.lengths[idx]:
            raise IndexError(
                f"position {position} out of range for {name!r} "
                f"(length {self.lengths[idx]})"
            )
        return int(self.offsets[idx]) + position

    def to_local(self, global_pos: int) -> tuple[str, int]:
        """Global coordinate → ``(sequence name, local position)``."""
        total = int(self.offsets[-1])
        if not 0 <= global_pos < total:
            raise IndexError(f"global position {global_pos} out of range [0, {total})")
        idx = int(np.searchsorted(self.offsets, global_pos, side="right")) - 1
        return self.names[idx], global_pos - int(self.offsets[idx])

    def _valid_hits(self, positions: np.ndarray, length: int) -> list[tuple[str, int]]:
        """Drop concatenation-boundary-spanning hits; localize the rest."""
        out: list[tuple[str, int]] = []
        for p in positions.tolist():
            idx = int(np.searchsorted(self.offsets, p, side="right")) - 1
            local = p - int(self.offsets[idx])
            if local + length <= int(self.lengths[idx]):
                out.append((self.names[idx], local))
        return out

    # -- queries ---------------------------------------------------------------------

    def locate(self, pattern: str) -> list[tuple[str, int]]:
        """All valid ``(sequence, position)`` occurrences of ``pattern``."""
        positions = self.index.locate(pattern)
        return self._valid_hits(positions, len(pattern))

    def count(self, pattern: str) -> int:
        """Valid occurrences (boundary-spanning artifacts excluded)."""
        return len(self.locate(pattern))

    def map_read(self, read: str, read_id: int = 0) -> MultiRefMapping:
        """Both-strand mapping with per-sequence coordinates.

        Invalid reads (``N``/IUPAC bases) come back unmapped, matching
        the single-reference mapper's N-policy.
        """
        if not is_valid(read):
            current_counters().reads_invalid += 1
            return MultiRefMapping(read_id=read_id, hits=())
        hits: list[ReferenceHit] = []
        for strand, seq in (("+", read), ("-", reverse_complement(read))):
            for name, pos in self.locate(seq):
                hits.append(ReferenceHit(name=name, position=pos, strand=strand))
        hits.sort(key=lambda h: (self.ordinals[h.name], h.position, h.strand))
        return MultiRefMapping(read_id=read_id, hits=tuple(hits))

    def map_reads(self, reads: Sequence[str]) -> list[MultiRefMapping]:
        return [self.map_read(r, i) for i, r in enumerate(reads)]

    # -- info -------------------------------------------------------------------------

    @property
    def n_sequences(self) -> int:
        return len(self.names)

    @property
    def total_length(self) -> int:
        return int(self.offsets[-1])

    def sequence_length(self, name: str) -> int:
        try:
            return int(self.lengths[self.ordinals[name]])
        except KeyError:
            raise KeyError(f"unknown sequence {name!r}") from None

    def sam_header(self) -> list[str]:
        """``@SQ`` lines for SAM output over this reference set."""
        lines = ["@HD\tVN:1.6\tSO:unknown"]
        for name, length in zip(self.names, self.lengths.tolist()):
            lines.append(f"@SQ\tSN:{name}\tLN:{length}")
        return lines

    def __repr__(self) -> str:
        return (
            f"MultiReferenceIndex(sequences={self.n_sequences}, "
            f"total={self.total_length} bp)"
        )
