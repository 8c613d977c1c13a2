"""Sampled suffix arrays for locate queries.

BWaveR keeps the *full* suffix array in host memory and resolves match
positions there after the FPGA returns ``[start, end]`` row intervals
(paper §III-C: "the positions ... are retrieved by the host CPU, in the
corresponding sets of the suffix array").  :class:`FullSA` models exactly
that.

Production FM-index mappers (BWA, Bowtie2) instead keep the SA entry of
every ``k``-th text position and recover the rest by LF-walking to the
nearest sampled row — trading locate time for memory.
:class:`SampledSA` implements that scheme, flagging the sampled rows in
an RRR-encoded mark vector (the paper's own structure), so every walk
ends within ``k - 1`` steps; it backs the served catalog shards, the
Bowtie2-like baseline and the memory/time ablation.

Both expose ``locate_batch(starts, ends, lf_many, seg=None)``, which
resolves every ``[start, end)`` row interval of a batch at once and
returns the positions of all intervals back to back plus per-interval
offsets.  ``stack`` joins the locate structures of several indexes into
one whose intervals each name their index (``seg``), so a catalog's
resident shards share one gather or one LF walk; each part's arrays stay
where they are (a stack copies no suffix array or sample).
"""

from __future__ import annotations

import numpy as np

from ..core.rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR, BlockRankCache, RRRVector

#: The mark vector uses the paper's RRR parameters.
MARK_B = DEFAULT_BLOCK_SIZE
MARK_SF = DEFAULT_SUPERBLOCK_FACTOR


def _interval_rows(starts, ends, n_rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows of every ``[start, end)`` interval back to back, and the
    ``len(starts) + 1`` offsets delimiting each interval's rows;
    ``n_rows`` bounds every interval or each its own."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape or starts.ndim != 1:
        raise ValueError("starts and ends must be 1-D arrays of equal length")
    if starts.size and (
        starts.min() < 0 or np.any(ends > n_rows) or np.any(starts > ends)
    ):
        raise IndexError("row range out of bounds")
    counts = ends - starts
    offsets = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    rows = np.arange(offsets[-1], dtype=np.int64) + np.repeat(
        starts - offsets[:-1], counts
    )
    return rows, offsets


def _gather(parts: tuple[np.ndarray, ...], idx: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """``parts[seg[i]][idx[i]]`` for every ``i`` as int64: one take per
    part present, from the part's own array."""
    out = np.empty(idx.size, dtype=np.int64)
    # bincount, not np.unique, whose first call imports numpy.ma.
    for s in np.flatnonzero(np.bincount(seg, minlength=len(parts))).tolist():
        here = seg == s
        out[here] = parts[s].take(idx[here])
    return out


class FullSA:
    """Host-resident full suffix array: O(1) locate per occurrence.

    The array is kept as given when it is ``uint32`` (the flat
    container's layout, attached without a copy) and as ``int64``
    otherwise; positions are returned as ``int64`` either way.
    """

    def __init__(self, sa: np.ndarray):
        sa = np.asarray(sa)
        self.sa = sa if sa.dtype == np.uint32 else sa.astype(np.int64, copy=False)

    @classmethod
    def stack(cls, parts: list["FullSA"]) -> "FullSA":
        """A query structure over the suffix arrays of ``parts``, each
        left in place: an interval of part ``s`` is located with
        ``seg = s`` (:meth:`locate_batch` only)."""
        self = cls.__new__(cls)
        self.sa = None
        self.parts = tuple(p.sa for p in parts)
        self.seg_rows = np.array([sa.size for sa in self.parts], dtype=np.int64)
        return self

    def locate(self, row: int, lf=None) -> int:
        """Text position of the suffix at matrix row ``row``."""
        if not 0 <= row < self.sa.size:
            raise IndexError(f"row {row} out of range [0, {self.sa.size})")
        return int(self.sa[row])

    def locate_range(self, start: int, end: int, lf=None, lf_many=None) -> np.ndarray:
        """Text positions for rows ``[start, end)`` (one per occurrence)."""
        if not 0 <= start <= end <= self.sa.size:
            raise IndexError("row range out of bounds")
        return self.sa[start:end].astype(np.int64)

    def locate_batch(
        self, starts, ends, lf_many=None, seg=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of every interval ``[starts[i], ends[i])`` with one
        gather; interval ``i``'s are ``positions[offsets[i]:offsets[i + 1]]``
        in row order.  On a :meth:`stack`, interval ``i`` lies in part
        ``seg[i]``."""
        if seg is None:
            rows, offsets = _interval_rows(starts, ends, self.sa.size)
            return self.sa.take(rows).astype(np.int64, copy=False), offsets
        rows, offsets = _interval_rows(starts, ends, self.seg_rows.take(seg))
        return _gather(self.parts, rows, np.repeat(seg, np.diff(offsets))), offsets

    def size_in_bytes(self) -> int:
        return self.sa.nbytes

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {"sa": self.sa}

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "FullSA":
        """Wrap an externally owned suffix array (``uint32`` or ``int64``)
        without a copy."""
        self = cls.__new__(cls)
        self.sa = arrays["sa"]
        return self


class SampledSA:
    """SA samples at every text position divisible by ``k``, with LF-walk
    recovery.

    A row is *marked* when its suffix starts at a multiple of ``k``
    (``SA[row] % k == 0``).  The marks form a bit-vector over all rows,
    stored as an :class:`~repro.core.rrr.RRRVector` with the paper's
    ``b = 15, sf = 50``; at density ``1 / k`` it costs a fraction of a
    bit per row.  A marked row's sample is the quotient
    ``SA[row] // k``, kept as ``uint32`` in marked-row order, so it sits
    at ``samples[rank1(marks, row)]``.  (The quotients are below the
    number of marks, which the RRR encoder's 32-bit partial sums bound.)

    Each LF step moves one text position left, so the walk from any row
    reaches a marked one within ``SA[row] % k <= k - 1`` steps (position
    0 is always marked, so no walk wraps through the sentinel).  Batch
    locate walks all rows of a batch together and pays one ``lf_many``
    call per step of the longest walk, hence at most ``k - 1``.

    Parameters
    ----------
    sa:
        The full suffix array (consumed at build time; only the marked
        entries are retained, as quotients).
    k:
        Sampling rate: ``1 / k`` of the text positions keep their row's
        SA entry.
    """

    def __init__(self, sa: np.ndarray, k: int = 32):
        if k < 1:
            raise ValueError(f"sampling rate must be >= 1, got {k}")
        sa = np.asarray(sa, dtype=np.int64)
        self.k = int(k)
        self.n_rows = int(sa.size)
        marked = sa % k == 0
        self.marks = RRRVector(marked.view(np.uint8), b=MARK_B, sf=MARK_SF)
        self.samples = (sa[marked] // k).astype(np.uint32)

    @classmethod
    def stack(cls, parts: list["SampledSA"]) -> "SampledSA":
        """A query structure over sampled arrays of one rate ``k``:
        their mark vectors share one :class:`BlockRankCache` (decoded
        rank scratch), and each part's samples stay in place.  An
        interval of part ``s`` is located with ``seg = s`` and an LF
        kernel taking each row's part (``StackedBWT.lf_many``);
        :meth:`locate_batch` only."""
        if len({p.k for p in parts}) != 1:
            raise ValueError("sampled arrays stack only at one sampling rate")
        self = cls.__new__(cls)
        self.k = parts[0].k
        self.n_rows = np.array([p.n_rows for p in parts], dtype=np.int64)
        self.marks = BlockRankCache([p.marks for p in parts])
        self.samples = None
        self.parts = tuple(p.samples for p in parts)
        return self

    def locate(self, row: int, lf) -> int:
        """Text position of the suffix at ``row`` by a scalar LF walk.

        ``lf`` is a callable mapping a row to its last-first image (e.g.
        :meth:`repro.core.bwt_structure.BWTStructure.lf`).  If ``row``
        holds the suffix starting at text position ``p``, then ``lf(row)``
        holds the suffix starting at ``p - 1``, so after ``s`` steps
        landing on a marked row with sample ``q``, the answer is
        ``q * k + s``.  This is the differential oracle for
        :meth:`locate_batch`.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows})")
        steps = 0
        while not self.marks.access(row):
            row = lf(row)
            steps += 1
        return int(self.samples[self.marks.rank1(row)]) * self.k + steps

    def locate_range(self, start: int, end: int, lf, lf_many=None) -> np.ndarray:
        """Text positions for rows ``[start, end)``.

        With ``lf_many`` (a vectorized LF kernel such as
        ``BWTStructure.lf_many``) this is :meth:`locate_batch` over the
        one interval; without it, each row takes its own scalar
        :meth:`locate` walk (the differential oracle).
        """
        if not 0 <= start <= end <= self.n_rows:
            raise IndexError("row range out of bounds")
        if lf_many is None:
            return np.array(
                [self.locate(r, lf) for r in range(start, end)], dtype=np.int64
            )
        return self.locate_batch([start], [end], lf_many)[0]

    def locate_batch(self, starts, ends, lf_many, seg=None) -> tuple[np.ndarray, np.ndarray]:
        """Positions of every interval ``[starts[i], ends[i])`` of a batch.

        All rows of all intervals walk toward marked rows together.  Each
        step asks "landed?" of every live row with one
        :meth:`~repro.core.rrr.RRRVector.rank1_bit_many` call: one
        decoded mark block per row gives both its mark bit and its rank,
        which is a marked row's sample index.  The rest advance with one
        ``lf_many`` call, so a batch costs at most ``k - 1`` of them.
        Interval ``i``'s positions are
        ``positions[offsets[i]:offsets[i + 1]]``, in row order —
        identical to :meth:`locate` row by row.  On a :meth:`stack`,
        interval ``i`` lies in part ``seg[i]``: each row carries its part
        through the same walk, and ``lf_many(rows, seg)`` steps them.
        """
        if seg is None:
            rows, offsets = _interval_rows(starts, ends, self.n_rows)
        else:
            rows, offsets = _interval_rows(starts, ends, self.n_rows.take(seg))
            seg = row_seg = np.repeat(seg, np.diff(offsets))
        # Per row: the steps it walked, and the sample index it landed on.
        pos = np.empty(rows.size, dtype=np.int64)
        sample = np.empty(rows.size, dtype=np.int64)
        live = np.arange(rows.size)
        cur = rows
        step = 0
        while True:
            if seg is None:
                idx, landed = self.marks.rank1_bit_many(cur)
            else:
                idx, landed = self.marks.rank1_bit_many(cur, seg)
            done = live[landed]
            pos[done] = step
            sample[done] = idx[landed]
            walking = ~landed
            if not walking.any():
                break
            live = live[walking]
            if seg is None:
                cur = lf_many(cur[walking])
            else:
                seg = seg[walking]
                cur = lf_many(cur[walking], seg)
            step += 1
        if self.samples is not None:
            quotients = self.samples.take(sample).astype(np.int64)
        else:
            quotients = _gather(self.parts, sample, row_seg)
        pos += quotients * np.int64(self.k)
        return pos, offsets

    def size_in_bytes(self) -> int:
        return self.samples.nbytes + self.marks.size_in_bytes()

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        marks_meta, marks_arrays = self.marks.export_arrays()
        meta = {"k": self.k, "n_rows": self.n_rows, "marks": marks_meta}
        arrays = {"samples": self.samples}
        arrays.update((f"marks/{name}", arr) for name, arr in marks_arrays.items())
        return meta, arrays

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "SampledSA":
        """Wrap externally owned samples and mark arrays (no copy)."""
        self = cls.__new__(cls)
        self.k = int(meta["k"])
        self.n_rows = int(meta["n_rows"])
        self.samples = arrays["samples"]
        self.marks = RRRVector.from_arrays(
            meta["marks"],
            {
                name.removeprefix("marks/"): arr
                for name, arr in arrays.items()
                if name.startswith("marks/")
            },
        )
        return self
