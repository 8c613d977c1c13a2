"""Trial dispatcher: executes declarative experiments and persists trials.

The runner is the only imperative part of the platform.  For each
config it

1. builds the workload substrate once (``Workload.setup``),
2. spins up a shared-memory :class:`~repro.serving.pool.MapperPool`
   when the config says so (``pool_workers > 0``),
3. runs ``warmup`` trials (persisted with ``phase="warmup"``, excluded
   from statistics) then ``repetitions`` steady-state trials,
4. wraps every trial in a fresh enabled telemetry instance and attaches
   the run's counter deltas (ftab hit rates, fault-ladder engagements,
   invalid-read rejections) to the persisted record, so a report can
   correlate a perf delta with a degraded run or a changed hit rate,
5. persists each trial as JSON + SQLite through the
   :class:`~repro.bench.platform.store.ResultsStore`.

Trial records carry git hash, config hash, seed, and host fingerprint —
the full provenance key the gate and report need.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ...telemetry import Telemetry, get_telemetry, set_telemetry
from .configs import ExperimentConfig
from .store import ResultsStore, TrialRecord, git_revision, host_fingerprint
from .workloads import create_workload, warm_clock

#: Telemetry counter prefixes copied into each trial's metrics snapshot.
TELEMETRY_WATCH_PREFIXES = ("ftab_", "fault_", "fpga_", "reads_invalid")


def _telemetry_deltas(snapshot: dict) -> dict[str, float]:
    """Flatten watched counters out of a registry snapshot (sum over labels)."""
    out: dict[str, float] = {}
    for name, doc in snapshot.items():
        if not name.startswith(TELEMETRY_WATCH_PREFIXES):
            continue
        if doc.get("type") != "counter":
            continue
        total = sum(s.get("value", 0.0) for s in doc.get("samples", []))
        if total:
            out[name] = total
    return out


@dataclass
class RunReport:
    """What one ``repro bench run`` produced."""

    git_hash: str
    host: str
    records: list[TrialRecord] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def steady(self, workload: str | None = None) -> list[TrialRecord]:
        return [
            r for r in self.records
            if r.phase == "steady" and (workload is None or r.workload == workload)
        ]

    def median_seconds(self, workload: str) -> float:
        return float(np.median([r.wall_seconds for r in self.steady(workload)]))

    def summary_lines(self) -> list[str]:
        lines = [
            f"bench run @ {self.git_hash[:12]} on host {self.host}: "
            f"{len(self.records)} trials "
            f"({len(self.steady())} steady)"
        ]
        for workload in sorted({r.workload for r in self.steady()}):
            med = self.median_seconds(workload)
            n = len(self.steady(workload))
            lines.append(f"  {workload}: median {med * 1e3:.3f} ms over {n} reps")
        for name, reason in self.skipped:
            lines.append(f"  {name}: SKIPPED ({reason})")
        return lines


def run_experiments(
    configs: list[ExperimentConfig],
    store: ResultsStore,
    *,
    as_baseline: bool = False,
    git_hash: str | None = None,
    host: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> RunReport:
    """Execute every config and persist all trials.

    ``as_baseline`` flags the run's records as the comparison baseline
    for later gates (e.g. the first half of a two-run CI job).
    """
    say = progress or (lambda msg: None)
    report = RunReport(
        git_hash=git_hash if git_hash is not None else git_revision(),
        host=host if host is not None else host_fingerprint(),
    )
    for config in configs:
        say(f"experiment {config.name} [{config.workload} @ {config.scale}]")
        try:
            records = _run_one(config, report, as_baseline)
        except Exception as exc:
            # One broken experiment must not void the rest of the matrix —
            # but it must be loud in the report, not silently absent.
            say(f"  FAILED: {type(exc).__name__}: {exc}")
            report.skipped.append((config.name, f"{type(exc).__name__}: {exc}"))
            continue
        store.insert_many(records)
        report.records.extend(records)
        steady = [r.wall_seconds for r in records if r.phase == "steady"]
        say(f"  median {np.median(steady) * 1e3:.3f} ms over {len(steady)} reps")
    return report


def _run_one(
    config: ExperimentConfig, report: RunReport, as_baseline: bool
) -> list[TrialRecord]:
    workload = create_workload(config)
    config_hash = config.config_hash()
    records: list[TrialRecord] = []
    with tempfile.TemporaryDirectory(prefix=f"bench_{config.workload}_") as scratch:
        workload.setup(Path(scratch))
        pool = None
        try:
            if workload.needs_pool or config.pool_workers > 0:
                from ...serving.pool import MapperPool

                pool = MapperPool(
                    workload.pool_index(), workers=max(1, config.pool_workers)
                )
                workload.pool = pool
            warm_clock()
            phases = ["warmup"] * config.warmup + ["steady"] * config.repetitions
            for rep, phase in enumerate(phases):
                wall, aux = _timed_trial(workload)
                records.append(
                    TrialRecord(
                        experiment=config.name,
                        workload=config.workload,
                        config_hash=config_hash,
                        git_hash=report.git_hash,
                        seed=config.seed,
                        host=report.host,
                        rep=rep,
                        phase=phase,
                        wall_seconds=wall,
                        created_utc=time.time(),
                        is_baseline=as_baseline,
                        metrics=aux,
                    )
                )
        finally:
            if pool is not None:
                pool.close()
            workload.teardown()
    return records


def _timed_trial(workload) -> tuple[float, dict]:
    """One timed run under a private enabled telemetry instance.

    Telemetry is enabled *consistently* for every trial (baseline and
    candidate alike), so its small overhead cancels in comparisons while
    the counter deltas ride along in the snapshot.

    Sub-millisecond workloads declare ``inner_loop > 1``: the timed
    region covers that many back-to-back runs and the recorded wall
    clock is the per-run mean, trading timer/scheduler jitter for a
    longer measured region without changing the metric's unit.
    """
    inner = max(1, int(getattr(workload, "inner_loop", 1)))
    before = get_telemetry()
    tel = Telemetry(enabled=True)
    set_telemetry(tel)
    try:
        t0 = time.perf_counter()
        for _ in range(inner):
            aux = workload.run_once() or {}
        wall = (time.perf_counter() - t0) / inner
    finally:
        set_telemetry(before)
    aux = dict(aux)
    if inner > 1:
        aux["inner_loop"] = inner
    aux.update(_telemetry_deltas(tel.metrics.snapshot()))
    return wall, aux
