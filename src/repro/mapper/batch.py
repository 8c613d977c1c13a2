"""Batched mapping runs with timing and operation accounting.

The evaluation harness needs, for every configuration, three things per
run: wall-clock time, the operation counts accrued (to feed the analytic
cost models), and the mapping outcomes.  :func:`run_mapping_batch`
packages those.  :func:`run_mapping_multiprocess` additionally shards a
read set over worker processes — the honest (GIL-free) way to *measure*
multi-core scaling in Python, complementing the calibrated thread model
in :mod:`repro.baseline.threading_model` that the Table I/II harness uses
for paper-scale thread counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..core.counters import CounterScope
from ..index.fm_index import FMIndex
from ..telemetry import get_telemetry
from .mapper import Mapper
from .results import MappingResult, mapping_ratio


@dataclass
class BatchRunReport:
    """Everything one measured mapping run produced."""

    n_reads: int
    read_length: int
    wall_seconds: float
    mapping_ratio: float
    op_counts: dict[str, int] = field(default_factory=dict)
    results: list[MappingResult] = field(default_factory=list)

    @property
    def reads_per_second(self) -> float:
        # 0.0 (not inf) on zero wall time: these reports are serialized to
        # JSON bench/result docs, and Infinity is not valid JSON.
        return self.n_reads / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def total_bs_steps(self) -> int:
        return self.op_counts.get("bs_steps", 0)


def run_mapping_batch(
    index: FMIndex,
    reads: Sequence[str],
    locate: bool = False,
    batch: bool = True,
    keep_results: bool = True,
) -> BatchRunReport:
    """Map ``reads`` (both strands), timing the mapping step only.

    ``locate=False`` measures exactly what the paper's FPGA kernel does
    (interval computation; position resolution is a separate host step).
    """
    mapper = Mapper(index, locate=locate)
    tel = get_telemetry()
    with tel.span("mapper.batch_run", cat="mapper", n_reads=len(reads)):
        with CounterScope() as scope:
            t0 = time.perf_counter()
            results = mapper.map_reads(reads, batch=batch)
            wall = time.perf_counter() - t0
    if tel.enabled:
        m = tel.metrics
        m.counter("mapper_batch_runs_total", "Measured batch mapping runs").inc()
        m.histogram(
            "mapper_batch_seconds", "Wall seconds per measured batch run"
        ).observe(wall)
    return BatchRunReport(
        n_reads=len(reads),
        read_length=len(reads[0]) if reads else 0,
        wall_seconds=wall,
        mapping_ratio=mapping_ratio(results),
        op_counts=scope.delta,
        results=results if keep_results else [],
    )


# --------------------------------------------------------------------------
# Multiprocess sharding (measured multi-core scaling).
# --------------------------------------------------------------------------


def run_mapping_multiprocess(
    index: FMIndex,
    reads: Sequence[str],
    workers: int = 2,
    start_method: str | None = None,
    mode: str = "auto",
) -> BatchRunReport:
    """Shard ``reads`` across ``workers`` processes and time the whole map.

    The workers come from a :class:`~repro.serving.pool.MapperPool`: the
    index is published once (shared memory, or a memory-mapped flat file)
    and each worker attaches to the same physical copy — no per-worker
    pickle of the structure, and resident memory stays ~one index total
    regardless of ``workers``.  Each worker counts its shard in its own
    ``CounterScope`` and the deltas are summed; per-read results are not
    shipped back (only aggregate mapping ratio), keeping IPC cost out of
    the measurement.

    ``start_method``/``mode`` are forwarded to the pool (defaults: fork
    when available; shared memory with mmap fallback).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    reads = list(reads)
    if workers == 1 or len(reads) < workers:
        return run_mapping_batch(index, reads, keep_results=False)
    from ..serving.pool import MapperPool

    with MapperPool(
        index, workers=workers, start_method=start_method, mode=mode
    ) as pool:
        outcome = pool.run_batch(reads, locate=False)
    return BatchRunReport(
        n_reads=outcome.n_reads,
        read_length=len(reads[0]) if reads else 0,
        wall_seconds=outcome.wall_seconds,
        mapping_ratio=outcome.mapping_ratio,
        op_counts=outcome.op_counts,
        results=[],
    )
