"""Sampled suffix arrays for locate queries.

BWaveR keeps the *full* suffix array in host memory and resolves match
positions there after the FPGA returns ``[start, end]`` row intervals
(paper §III-C: "the positions ... are retrieved by the host CPU, in the
corresponding sets of the suffix array").  :class:`FullSA` models exactly
that.

Production FM-index mappers (BWA, Bowtie2) instead keep every ``k``-th SA
entry and recover the rest by LF-walking to the nearest sampled row —
trading locate time for memory.  :class:`SampledSA` implements that
scheme; it backs the Bowtie2-like baseline and the memory/time ablation.

Both expose ``locate_batch(starts, ends, lf_many)``, which resolves every
``[start, end)`` row interval of a batch at once and returns the
positions of all intervals back to back plus per-interval offsets.
"""

from __future__ import annotations

import numpy as np


def _interval_rows(starts, ends, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of every ``[start, end)`` interval back to back, and the
    ``len(starts) + 1`` offsets delimiting each interval's rows."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape or starts.ndim != 1:
        raise ValueError("starts and ends must be 1-D arrays of equal length")
    if starts.size and (
        starts.min() < 0 or ends.max() > n_rows or np.any(starts > ends)
    ):
        raise IndexError("row range out of bounds")
    counts = ends - starts
    offsets = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    rows = np.arange(offsets[-1], dtype=np.int64) + np.repeat(
        starts - offsets[:-1], counts
    )
    return rows, offsets


class FullSA:
    """Host-resident full suffix array: O(1) locate per occurrence."""

    def __init__(self, sa: np.ndarray):
        self.sa = np.asarray(sa, dtype=np.int64)

    def locate(self, row: int, lf=None) -> int:
        """Text position of the suffix at matrix row ``row``."""
        if not 0 <= row < self.sa.size:
            raise IndexError(f"row {row} out of range [0, {self.sa.size})")
        return int(self.sa[row])

    def locate_range(self, start: int, end: int, lf=None, lf_many=None) -> np.ndarray:
        """Text positions for rows ``[start, end)`` (one per occurrence)."""
        if not 0 <= start <= end <= self.sa.size:
            raise IndexError("row range out of bounds")
        return self.sa[start:end].copy()

    def locate_batch(self, starts, ends, lf_many=None) -> tuple[np.ndarray, np.ndarray]:
        """Positions of every interval ``[starts[i], ends[i])`` with one
        gather; interval ``i``'s are ``positions[offsets[i]:offsets[i + 1]]``
        in row order."""
        rows, offsets = _interval_rows(starts, ends, self.sa.size)
        return self.sa[rows], offsets

    def size_in_bytes(self) -> int:
        return self.sa.nbytes

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {"sa": self.sa}

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "FullSA":
        """Wrap an externally owned suffix array (no copy for int64 input)."""
        self = cls.__new__(cls)
        self.sa = arrays["sa"]
        return self


class SampledSA:
    """SA samples at every row divisible by ``k``, with LF-walk recovery.

    Sampling is by *row*, not by text position, so the LF walk from an
    unsampled row to a sampled one has no upper bound: its length is
    roughly geometric with mean ``k`` (a walk of a few times ``k`` steps
    is routine on a real reference).  Batch locate therefore walks all
    rows of a batch together and pays one ``lf_many`` call per step of
    the *longest* walk, not one per row.

    Parameters
    ----------
    sa:
        The full suffix array (consumed at build time; only rows where
        ``row % k == 0`` are retained).
    k:
        Sampling rate: ``1 / k`` of the rows keep their SA entry.
    """

    def __init__(self, sa: np.ndarray, k: int = 32):
        if k < 1:
            raise ValueError(f"sampling rate must be >= 1, got {k}")
        sa = np.asarray(sa, dtype=np.int64)
        self.k = int(k)
        self.n_rows = int(sa.size)
        self.samples = sa[::k].copy()

    def locate(self, row: int, lf) -> int:
        """Text position of the suffix at ``row`` by a scalar LF walk.

        ``lf`` is a callable mapping a row to its last-first image (e.g.
        :meth:`repro.core.bwt_structure.BWTStructure.lf`).  If ``row``
        holds the suffix starting at text position ``p``, then ``lf(row)``
        holds the suffix starting at ``p - 1`` (indices wrap through the
        sentinel), so after ``s`` steps landing on a sampled row holding
        position ``q``, the answer is ``q + s`` (mod the text+sentinel
        length).  This is the differential oracle for
        :meth:`locate_batch`.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows})")
        steps = 0
        while row % self.k != 0:
            row = lf(row)
            steps += 1
        pos = int(self.samples[row // self.k]) + steps
        return pos % self.n_rows

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

    def locate_batch(self, starts, ends, lf_many) -> tuple[np.ndarray, np.ndarray]:
        """Positions of every interval ``[starts[i], ends[i])`` of a batch.

        All rows of all intervals walk toward their sampled rows together:
        each iteration advances the still-unsampled rows with one
        ``lf_many`` call, and rows drop out as they land, so a batch costs
        as many calls as its longest walk has steps.  Interval ``i``'s
        positions are ``positions[offsets[i]:offsets[i + 1]]``, in row
        order — identical to :meth:`locate` row by row.
        """
        rows, offsets = _interval_rows(starts, ends, self.n_rows)
        steps = np.zeros(rows.size, dtype=np.int64)
        walking = np.flatnonzero(rows % self.k != 0)
        cur = rows[walking]
        n_steps = 0
        while walking.size:
            cur = lf_many(cur)
            n_steps += 1
            landed = cur % self.k == 0
            rows[walking[landed]] = cur[landed]
            steps[walking[landed]] = n_steps
            walking = walking[~landed]
            cur = cur[~landed]
        pos = self.samples[rows // self.k] + steps
        return pos % self.n_rows, offsets

    def size_in_bytes(self) -> int:
        return self.samples.nbytes

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"k": self.k, "n_rows": self.n_rows}, {"samples": self.samples}

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "SampledSA":
        """Wrap externally owned samples (no copy)."""
        self = cls.__new__(cls)
        self.k = int(meta["k"])
        self.n_rows = int(meta["n_rows"])
        self.samples = arrays["samples"]
        return self
