"""Partitioned indexes for references beyond the on-chip capacity.

Paper §V future work: "allow reference sequences longer than 100
millions bp".  The single-structure design is capacity-bound — the whole
succinct BWT must sit in the device's BRAM/URAM pool.  The standard
scale-out is **partitioning**: split the reference into chunks that
individually fit, index each chunk, and run every query batch against
each chunk in turn (the paper's own suggestion that its single-FPGA
design "can be easily replicated").

Correctness at the seams: consecutive chunks **overlap** by
``overlap >= max_query_length - 1`` bases, so any occurrence crossing a
chunk boundary lies entirely inside some chunk; hits found twice in an
overlap are deduplicated by their global position.

Performance model: each chunk swap re-pays the BWT-load overhead, so
the partitioned accelerator's modeled time is
``sum(load_i) + max(kernel, transfer)`` per chunk — exposed via
:meth:`PartitionedIndex.modeled_fpga_seconds` so the long-reference
trade-off (capacity vs reload cost) is quantifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..sequence.alphabet import reverse_complement
from .builder import build_index
from .fm_index import FMIndex

if TYPE_CHECKING:  # the FPGA model is imported only by modeled_fpga_seconds
    from ..fpga.cost_model import FPGACostModel


@dataclass(frozen=True)
class Chunk:
    """One partition: its half-open global span and its index."""

    start: int
    end: int
    index: FMIndex


class PartitionedIndex:
    """A long reference as overlapping, individually-indexed chunks.

    Parameters
    ----------
    reference:
        The full reference string.
    chunk_bases:
        Chunk payload size (excluding overlap).  Pick so one chunk's
        structure fits the target device — see
        :func:`repro.fpga.device.max_reference_bases`.
    max_query_length:
        Upper bound on query length; fixes the seam overlap at
        ``max_query_length - 1``.
    """

    def __init__(
        self,
        reference: str,
        chunk_bases: int,
        max_query_length: int = 176,
        b: int = 15,
        sf: int = 50,
    ):
        if chunk_bases < max_query_length:
            raise ValueError(
                f"chunk_bases ({chunk_bases}) must be >= max_query_length "
                f"({max_query_length})"
            )
        if max_query_length < 1:
            raise ValueError("max_query_length must be >= 1")
        self.reference_length = len(reference)
        self.max_query_length = int(max_query_length)
        self.overlap = self.max_query_length - 1
        self.chunks: list[Chunk] = []
        start = 0
        while start < len(reference):
            end = min(len(reference), start + chunk_bases + self.overlap)
            text = reference[start:end]
            index, _ = build_index(text, b=b, sf=sf)
            self.chunks.append(Chunk(start=start, end=end, index=index))
            if end == len(reference):
                break
            start += chunk_bases

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def structure_bytes_per_chunk(self) -> list[int]:
        return [c.index.backend.size_in_bytes() for c in self.chunks]

    # -- queries -------------------------------------------------------------

    def locate(self, pattern: str) -> np.ndarray:
        """Sorted global positions of all occurrences (deduplicated)."""
        if len(pattern) > self.max_query_length:
            raise ValueError(
                f"pattern of {len(pattern)} bases exceeds the partition's "
                f"max_query_length ({self.max_query_length}); rebuild with a "
                f"larger bound"
            )
        hits: set[int] = set()
        for chunk in self.chunks:
            for p in chunk.index.locate(pattern).tolist():
                hits.add(chunk.start + p)
        return np.array(sorted(hits), dtype=np.int64)

    def count(self, pattern: str) -> int:
        return int(self.locate(pattern).size)

    def map_read(self, read: str) -> dict[str, np.ndarray]:
        """Both strands; global positions per strand."""
        return {
            "+": self.locate(read),
            "-": self.locate(reverse_complement(read)),
        }

    def map_reads(self, reads: Sequence[str]) -> list[dict[str, np.ndarray]]:
        return [self.map_read(r) for r in reads]

    # -- device cost model -------------------------------------------------------

    def modeled_fpga_seconds(
        self,
        hw_steps_total: int,
        n_reads: int,
        cost_model: FPGACostModel | None = None,
    ) -> float:
        """Modeled device time for one batch run across all chunks.

        Every chunk pays its own structure load (the device is
        reprogrammed between chunks) and processes the full query batch;
        ``hw_steps_total`` is the per-chunk step budget (conservatively
        the same for every chunk: unmapped-in-this-chunk reads terminate
        early, which the caller's measured counts already reflect).
        ``cost_model`` defaults to the calibrated device model.
        """
        if cost_model is None:
            from ..fpga.cost_model import DEFAULT_COST_MODEL

            cost_model = DEFAULT_COST_MODEL
        total = 0.0
        for size in self.structure_bytes_per_chunk():
            total += cost_model.run_seconds(size, hw_steps_total, n_reads)
        return total

    def __repr__(self) -> str:
        return (
            f"PartitionedIndex(length={self.reference_length}, "
            f"chunks={self.n_chunks}, overlap={self.overlap})"
        )
