"""Mapping results and their text output formats.

BWaveR reports, per read, the SA intervals of the forward sequence and of
its reverse complement; the host then resolves intervals to positions in
the suffix array.  :class:`MappingResult` carries exactly that for one
read; :class:`MappedBatch` carries it for a whole batch as columns and
builds a :class:`MappingResult` only when one is asked for.
:func:`write_hits_tsv` writes the plain hits table, the native download
of the CLI and the web workflow (SAM output is :mod:`repro.mapper.sam`).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from ..index.fm_index import SearchResult
from ..sequence.alphabet import take_segments


@dataclass(frozen=True)
class StrandHit:
    """One strand's search outcome for a read."""

    interval: SearchResult
    positions: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.interval.count

    @property
    def found(self) -> bool:
        return self.interval.found

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrandHit):
            return NotImplemented
        if self.interval != other.interval:
            return False
        if self.positions is None or other.positions is None:
            return self.positions is other.positions
        return np.array_equal(self.positions, other.positions)


#: Reason code for reads rejected by the alphabet policy (``N``, IUPAC
#: ambiguity codes, or other non-ACGT/U characters).  Such reads are
#: reported unmapped with this reason instead of raising out of the
#: mapper (DESIGN.md §9's N-policy).
REASON_INVALID_BASE = "invalid_base"


@dataclass(frozen=True)
class MappingResult:
    """Outcome of mapping one read (and its reverse complement).

    ``reason`` is ``None`` for reads that went through the search, and a
    reason code (currently only :data:`REASON_INVALID_BASE`) for reads
    the mapper refused without searching.
    """

    read_id: int
    read_name: str
    length: int
    forward: StrandHit
    reverse: StrandHit
    reason: str | None = None

    @property
    def mapped(self) -> bool:
        """True when either strand matches (the paper's "mapped read")."""
        return self.forward.found or self.reverse.found

    @property
    def total_occurrences(self) -> int:
        return self.forward.count + self.reverse.count

    @property
    def steps(self) -> int:
        """Backward-search steps consumed across both strands.

        On the FPGA the two searches run in lockstep pipelines, so the
        *hardware* step count is ``max``; this property is the *software*
        (sequential) total.  The cost models pick whichever applies.
        """
        return self.forward.interval.steps + self.reverse.interval.steps

    @property
    def hardware_steps(self) -> int:
        return max(self.forward.interval.steps, self.reverse.interval.steps)


class MappedBatch(SequenceABC):
    """Both-strand outcomes of a read batch, held as columns.

    Row ``i`` is read ``id_base + i``: ``lo``/``hi``/``steps`` have shape
    ``(n, 2)`` (column 0 the read, column 1 its reverse complement),
    ``valid`` is false for reads the alphabet policy refused, and — when
    the batch was located — interval ``2 * i + s`` (strand ``s``) holds
    ``positions[offsets[2 * i + s]:offsets[2 * i + s + 1]]``, sorted.

    It is a read-only ``Sequence[MappingResult]`` that builds each
    :class:`MappingResult` only when indexed or iterated, compares equal
    to the list of results it stands for, and pickles as its arrays.
    """

    __hash__ = None  # type: ignore[assignment]  # equal to lists, like a list

    def __init__(
        self,
        lengths: np.ndarray,
        valid: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        steps: np.ndarray,
        positions: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        names: Sequence[str] | None = None,
        id_base: int = 0,
    ):
        self.lengths = lengths
        self.valid = valid
        self.lo = lo
        self.hi = hi
        self.steps = steps
        self.positions = positions
        self.offsets = offsets
        self.names = list(names) if names is not None else None
        self.id_base = int(id_base)

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, i):  # type: ignore[override]
        if isinstance(i, slice):
            start, stop, stride = i.indices(len(self))
            if stride != 1:
                return [self[k] for k in range(start, stop, stride)]
            part = self.take(np.arange(start, max(start, stop)))
            part.id_base = self.id_base + start
            return part
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"batch index {i} out of range for {n} reads")
        return self._result(i % n)

    def __iter__(self) -> Iterator[MappingResult]:
        return (self._result(i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def _result(self, i: int) -> MappingResult:
        read_id = self.id_base + i
        hits = []
        for s in (0, 1):
            interval = SearchResult(
                start=int(self.lo[i, s]), end=int(self.hi[i, s]), steps=int(self.steps[i, s])
            )
            pos = None
            if self.positions is not None:
                assert self.offsets is not None
                pos = self.positions[self.offsets[2 * i + s] : self.offsets[2 * i + s + 1]]
            hits.append(StrandHit(interval, pos))
        return MappingResult(
            read_id=read_id,
            read_name=self.names[i] if self.names is not None else f"read{read_id}",
            length=int(self.lengths[i]),
            forward=hits[0],
            reverse=hits[1],
            reason=None if self.valid[i] else REASON_INVALID_BASE,
        )

    # -- columns --------------------------------------------------------------

    @property
    def mapped(self) -> np.ndarray:
        """Per-read "either strand matches" flags."""
        return (self.hi > self.lo).any(axis=1)

    @property
    def n_mapped(self) -> int:
        return int(np.count_nonzero(self.mapped))

    def read_names(self) -> list[str]:
        if self.names is not None:
            return list(self.names)
        return [f"read{k}" for k in range(self.id_base, self.id_base + len(self))]

    def with_id_base(self, id_base: int) -> "MappedBatch":
        """The same results numbered from ``id_base`` (default names)."""
        return MappedBatch(
            self.lengths, self.valid, self.lo, self.hi, self.steps,
            self.positions, self.offsets, id_base=id_base,
        )

    def take(self, rows: np.ndarray) -> "MappedBatch":
        """Reads ``rows`` as a new batch numbered from 0."""
        rows = np.asarray(rows, dtype=np.int64)
        positions = offsets = None
        if self.positions is not None:
            assert self.offsets is not None
            # Interval rows of read r are 2r and 2r + 1.
            strand_rows = (2 * rows[:, None] + np.arange(2)).ravel()
            positions, offsets = take_segments(self.positions, self.offsets, strand_rows)
        return MappedBatch(
            self.lengths[rows], self.valid[rows], self.lo[rows], self.hi[rows],
            self.steps[rows], positions, offsets,
            names=[self.names[r] for r in rows.tolist()] if self.names is not None else None,
        )

    @classmethod
    def concat(cls, parts: Sequence["MappedBatch"]) -> "MappedBatch":
        """Batches back to back, numbered from 0 (default names)."""
        if not parts:
            empty = np.zeros((0, 2), dtype=np.int64)
            return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), empty, empty, empty)
        positions = offsets = None
        if all(p.positions is not None for p in parts):
            positions = np.concatenate([p.positions for p in parts])
            counts = np.concatenate([np.diff(p.offsets) for p in parts])  # type: ignore[arg-type]
            offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return cls(
            np.concatenate([p.lengths for p in parts]),
            np.concatenate([p.valid for p in parts]),
            np.concatenate([p.lo for p in parts]),
            np.concatenate([p.hi for p in parts]),
            np.concatenate([p.steps for p in parts]),
            positions,
            offsets,
        )


def renumbered(results: Sequence[MappingResult], shift: int) -> Sequence[MappingResult]:
    """``results`` with every ``read_id`` moved by ``shift`` and the
    default ``read<id>`` names (a :class:`MappedBatch` stays columnar)."""
    if isinstance(results, MappedBatch):
        return results.with_id_base(results.id_base + shift) if shift else results
    if shift == 0:
        return list(results)
    return [
        MappingResult(
            read_id=r.read_id + shift,
            read_name=f"read{r.read_id + shift}",
            length=r.length,
            forward=r.forward,
            reverse=r.reverse,
            reason=r.reason,
        )
        for r in results
    ]


def mapping_ratio(results: Sequence[MappingResult]) -> float:
    """Fraction of reads with at least one hit (Fig. 7's x-axis)."""
    if not results:
        return 0.0
    return sum(1 for r in results if r.mapped) / len(results)


#: First line of every hits table.
HITS_TSV_HEADER = "read\tlength\tfwd_count\trc_count\tfwd_positions\trc_positions\n"


def write_hits_tsv(
    results: Iterable[MappingResult], fh: IO[str], header: bool = True
) -> int:
    """Write one row per read: name, strand counts, and positions.

    Returns the number of rows written.  This is the primary download of
    the web workflow; streaming writers pass ``header=False`` for every
    batch after writing :data:`HITS_TSV_HEADER` once.  A
    :class:`MappedBatch` is formatted straight from its columns.
    """
    if header:
        fh.write(HITS_TSV_HEADER)
    if isinstance(results, MappedBatch):
        return _write_batch_rows(results, fh)
    rows = 0
    for r in results:
        fpos = (
            ",".join(map(str, r.forward.positions.tolist()))
            if r.forward.positions is not None and r.forward.positions.size
            else "."
        )
        rpos = (
            ",".join(map(str, r.reverse.positions.tolist()))
            if r.reverse.positions is not None and r.reverse.positions.size
            else "."
        )
        fh.write(
            f"{r.read_name}\t{r.length}\t{r.forward.count}\t{r.reverse.count}"
            f"\t{fpos}\t{rpos}\n"
        )
        rows += 1
    return rows


def _write_batch_rows(batch: MappedBatch, fh: IO[str]) -> int:
    counts = np.maximum(batch.hi - batch.lo, 0).tolist()
    lengths = batch.lengths.tolist()
    names = batch.read_names()
    if batch.positions is None:
        rows = [
            f"{name}\t{length}\t{f}\t{r}\t.\t.\n"
            for name, length, (f, r) in zip(names, lengths, counts)
        ]
    else:
        assert batch.offsets is not None
        pos = list(map(str, batch.positions.tolist()))
        off = batch.offsets.tolist()
        rows = [
            f"{name}\t{length}\t{f}\t{r}"
            f"\t{','.join(pos[off[2 * i] : off[2 * i + 1]]) or '.'}"
            f"\t{','.join(pos[off[2 * i + 1] : off[2 * i + 2]]) or '.'}\n"
            for i, (name, length, (f, r)) in enumerate(zip(names, lengths, counts))
        ]
    fh.write("".join(rows))
    return len(rows)

