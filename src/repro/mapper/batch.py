"""Batched mapping runs with timing and operation accounting.

The evaluation harness needs, for every configuration, three things per
run: wall-clock time, the operation counts accrued (to feed the analytic
cost models), and the mapping outcomes.  :func:`run_mapping_batch`
packages those.
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

