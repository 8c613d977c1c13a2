"""A Bowtie2-equivalent exact matcher (the paper's software competitor).

The paper compares against Bowtie2 run with ``-a --score-min C,0,-1`` —
a configuration that reports *all and only the exact matches* of each
read (and its reverse complement).  Functionally that is precisely an
FM-index exact search; what distinguishes Bowtie2's implementation is
its index layout: the BWT kept 2-bit packed with checkpointed occurrence
counts and a sampled suffix array, rather than a succinct wavelet/RRR
encoding.

:class:`Bowtie2Like` therefore wraps our checkpointed
:class:`~repro.index.occ_table.OccTable` backend and a
:class:`~repro.sequence.sampled_sa.SampledSA`, and exposes the same
mapping contract as :class:`~repro.mapper.mapper.Mapper` — so the
"without any loss in accuracy" claim is testable: on every read set,
BWaveR (CPU or simulated FPGA) and this baseline must report identical
occurrence sets.

Multi-thread rows use the calibrated Amdahl model of
:mod:`~repro.baseline.threading_model` on top of measured or modeled
single-thread time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import CounterScope
from ..index.fm_index import FMIndex
from ..index.ftab import Ftab
from ..index.occ_table import OccTable
from ..mapper.mapper import Mapper
from ..mapper.results import MappingResult
from ..sequence.bwt import bwt_from_codes
from ..sequence.alphabet import encode
from ..sequence.sampled_sa import SampledSA
from .threading_model import DEFAULT_THREAD_MODEL, AmdahlModel

import time


@dataclass
class Bowtie2RunReport:
    """One baseline run: wall time, op counts, outcomes."""

    n_reads: int
    wall_seconds: float
    mapping_ratio: float
    op_counts: dict[str, int]
    results: list[MappingResult]


class Bowtie2Like:
    """Exact-match-all mapper in Bowtie2's index style.

    Parameters
    ----------
    reference:
        DNA string (or 2-bit code array) to index.
    checkpoint_words:
        Occ checkpoint spacing (64-bit words; 4 ≈ Bowtie's layout).
    sa_sample_rate:
        Suffix-array sampling (Bowtie2 defaults to one row in 32).
    thread_model:
        Amdahl law used for multi-thread projections.
    ftab_k:
        When set, precompute the k-mer jump-start table over the
        checkpointed index (the real Bowtie2 ships one, ``--ftabchars``,
        default 10); searches then start ``k`` symbols in with one table
        read, bit-identically.
    """

    def __init__(
        self,
        reference,
        checkpoint_words: int = 4,
        sa_sample_rate: int = 32,
        thread_model: AmdahlModel = DEFAULT_THREAD_MODEL,
        ftab_k: int | None = None,
    ):
        codes = encode(reference) if isinstance(reference, str) else np.asarray(reference, dtype=np.uint8)
        bwt = bwt_from_codes(codes)
        self.backend = OccTable(bwt, checkpoint_words=checkpoint_words)
        ftab = Ftab.build(self.backend, k=ftab_k) if ftab_k is not None else None
        self.index = FMIndex(
            self.backend,
            locate_structure=SampledSA(bwt.sa, k=sa_sample_rate),
            ftab=ftab,
        )
        self.mapper = Mapper(self.index, locate=False)
        self.thread_model = thread_model

    def map_reads(self, reads, locate: bool = False) -> Bowtie2RunReport:
        """Map a read set (both strands), timing the search."""
        mapper = Mapper(self.index, locate=locate)
        with CounterScope() as scope:
            t0 = time.perf_counter()
            results = mapper.map_reads(list(reads))
            wall = time.perf_counter() - t0
        mapped = sum(1 for r in results if r.mapped)
        return Bowtie2RunReport(
            n_reads=len(results),
            wall_seconds=wall,
            mapping_ratio=mapped / len(results) if results else 0.0,
            op_counts=scope.delta,
            results=results,
        )

    def projected_seconds(self, single_thread_seconds: float, threads: int) -> float:
        """Multi-thread projection via the calibrated Amdahl model."""
        return self.thread_model.seconds(single_thread_seconds, threads)

    def size_in_bytes(self, include_locate: bool = True) -> int:
        total = self.backend.size_in_bytes()
        if include_locate:
            total += self.index.locate_structure.size_in_bytes()
        return total


def assert_same_accuracy(results_a, results_b) -> None:
    """Raise AssertionError unless two mappers' outcome sets agree.

    Compares per-read occurrence *counts* on both strands — intervals
    may legitimately differ between index layouts only if wrong, since
    both search the same BWT matrix.  Used by tests and by the Table I/II
    harness (the paper's "without any loss in accuracy" check).
    """
    if len(results_a) != len(results_b):
        raise AssertionError(
            f"result counts differ: {len(results_a)} vs {len(results_b)}"
        )
    for i, (a, b) in enumerate(zip(results_a, results_b)):
        if (a.forward.count, a.reverse.count) != (b.forward.count, b.reverse.count):
            raise AssertionError(
                f"read {i}: occurrence counts differ "
                f"({a.forward.count},{a.reverse.count}) vs "
                f"({b.forward.count},{b.reverse.count})"
            )
