"""High-level accelerator facade: the BWaveR device as a library object.

:class:`FPGAAccelerator` is what the examples and the benchmark harness
use: programmed once per reference (structure load — the fixed overhead
of Table II), then driven with batches of reads.  Internally it runs the
full host flow through the OpenCL-like runtime:

1. ``enqueue_write_buffer`` the BWT structure (program time),
2. per batch: write query records → run kernel → read result records,
3. report modeled device time from the profiling events, exactly as the
   paper measures.

Every run returns both the **modeled device seconds** (the reproduction
of the paper's FPGA column) and the **host wall seconds** the functional
simulation actually took (reported for honesty, never mixed into the
tables).

The host is fault-tolerant.  Each batch runs under a recovery ladder
(:class:`~repro.faults.RetryPolicy`): detected faults — BRAM CRC
mismatches, transfer CRC/length failures, stuck events, kernel hangs,
garbage result records — are retried with exponential backoff, the
device is reset and reprogrammed after repeated failures, and when the
retry budget is exhausted the batch degrades to the bit-identical CPU
search path, with the degradation (and every fault along the way)
recorded on the :class:`AcceleratorRun` report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.bwt_structure import BWTStructure
from ..core.counters import current_counters
from ..faults import (
    FaultError,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    validate_result_records,
)
from ..index.fm_index import FMIndex
from ..index.ftab import Ftab
from ..mapper.query import pack_queries
from ..sequence.alphabet import encode_batch
from ..telemetry import correlate, get_telemetry, new_run_id
from .cost_model import DEFAULT_COST_MODEL, FPGACostModel
from .device import ALVEO_U200, DeviceHealth, DeviceSpec
from .kernel import BackwardSearchKernel, KernelRun, QueryOutcome, batch_outcomes
from .opencl import CommandQueue, Context
from .power import DEFAULT_POWER_MODEL, PowerModel


@dataclass
class AcceleratorRun:
    """Everything one accelerated mapping run produced."""

    kernel_run: KernelRun
    modeled_seconds: float
    modeled_load_seconds: float
    modeled_kernel_seconds: float
    modeled_transfer_seconds: float
    host_wall_seconds: float
    energy_joules: float
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Fault-tolerance ledger: did any batch fall back to the CPU path,
    #: how many retries/reprograms happened, and what was detected.
    degraded: bool = False
    retries: int = 0
    reprograms: int = 0
    fault_counts: dict[str, int] = field(default_factory=dict)
    fault_events: list[FaultEvent] = field(default_factory=list)
    modeled_fault_overhead_seconds: float = 0.0

    @property
    def n_reads(self) -> int:
        return self.kernel_run.n_reads

    @property
    def mapping_ratio(self) -> float:
        n = self.kernel_run.n_reads
        return self.kernel_run.mapped_reads / n if n else 0.0

    @property
    def reads_per_second(self) -> float:
        # 0.0 (not inf) on zero modeled time: keeps JSON result docs valid.
        return self.n_reads / self.modeled_seconds if self.modeled_seconds > 0 else 0.0


class FPGAAccelerator:
    """Programmed device ready to map read batches.

    Parameters
    ----------
    structure:
        The succinct BWT structure to load on-chip.
    cost_model / power_model / spec:
        Calibrated device models (defaults reproduce the paper's setup).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; when given, its
        injector is threaded through the queue, the kernel and the BRAM
        banks so scripted fault scenarios exercise the recovery ladder.
    retry_policy:
        The recovery ladder (bounded retry → reset + reprogram → CPU
        fallback).  The integrity checks run regardless of whether a
        fault plan is attached.
    """

    def __init__(
        self,
        structure: BWTStructure,
        cost_model: FPGACostModel = DEFAULT_COST_MODEL,
        power_model: PowerModel = DEFAULT_POWER_MODEL,
        spec: DeviceSpec = ALVEO_U200,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        ftab: Ftab | None = None,
    ):
        self.cost_model = cost_model
        self.power_model = power_model
        self.spec = spec
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.injector = fault_plan.injector() if fault_plan is not None else None
        self.kernel = BackwardSearchKernel(
            structure, spec=spec, injector=self.injector, ftab=ftab
        )
        self.context = Context(spec)
        self.health = DeviceHealth()
        self.structure_bytes = self.kernel.structure_bytes()
        self._programmed = False
        self._program_seconds = 0.0

    @classmethod
    def for_index(cls, index: FMIndex, **kwargs) -> "FPGAAccelerator":
        """Wrap an existing index (its backend must be the succinct one).

        The index's jump-start table (when attached and enabled) rides
        along onto the device as the ``ftab_lut`` bank.
        """
        backend = index.backend
        if not isinstance(backend, BWTStructure):
            raise TypeError(
                "the FPGA kernel holds the succinct structure on-chip; "
                f"got a {type(backend).__name__} backend — build the index "
                "with backend='rrr'"
            )
        kwargs.setdefault("ftab", index.ftab if index.use_ftab else None)
        return cls(backend, **kwargs)

    def program(self, queue: CommandQueue) -> float:
        """Load the BWT structure (the fixed overhead); returns seconds."""
        buf = self.context.create_buffer(self.structure_bytes)
        ev = queue.enqueue_write_buffer(
            buf,
            np.zeros(self.structure_bytes, dtype=np.uint8),
            bytes_per_sec=self.cost_model.bram_init_bytes_per_sec,
        )
        self._programmed = True
        self._program_seconds = ev.duration_seconds
        return self._program_seconds

    def map_batch(
        self,
        reads,
        batch_size: int = 4096,
        include_load: bool = True,
    ) -> AcceleratorRun:
        """Map ``reads`` (both strands) through the simulated device.

        ``batch_size`` splits the read set into successive kernel
        invocations, as the real host does ("iteratively fetches query
        sequences from the host's memory"); results and statistics are
        aggregated across batches.  Detected faults are retried per the
        accelerator's :class:`~repro.faults.RetryPolicy`; results are
        bit-identical to a clean run whether a batch succeeded on the
        device or degraded to the CPU path.

        When telemetry is enabled the run is traced (one span per batch,
        the modeled device timeline merged onto the same trace) and its
        fault/retry/fallback ledger is mirrored into the metrics
        registry.
        """
        reads = list(reads)
        tel = get_telemetry()
        if not tel.enabled:
            return self._map_batch_impl(reads, batch_size, include_load, tel)
        with correlate(run_id=new_run_id()):
            with tel.span(
                "fpga.map_batch", cat="fpga",
                n_reads=len(reads), batch_size=batch_size,
            ):
                run = self._map_batch_impl(reads, batch_size, include_load, tel)
            self._record_run_telemetry(tel, run)
        return run

    def _map_batch_impl(
        self, reads: list, batch_size: int, include_load: bool, tel
    ) -> AcceleratorRun:
        queue = CommandQueue(
            self.context, cost_model=self.cost_model, injector=self.injector
        )
        queue_anchor_us = tel.tracer.now_us()
        t0 = time.perf_counter()
        fault_events: list[FaultEvent] = []
        retries = 0
        reprograms = 0
        overhead_s = 0.0
        degraded = False
        device_ok = True

        if include_load:
            with tel.span("fpga.program", cat="fpga", structure_bytes=self.structure_bytes):
                ok, program_stats = self._program_with_recovery(queue)
            device_ok = ok
            fault_events.extend(program_stats["events"])
            retries += program_stats["retries"]
            reprograms += program_stats["reprograms"]
            overhead_s += program_stats["overhead_s"]
            degraded |= not ok
        elif not self._programmed:
            raise RuntimeError("device not programmed; call with include_load=True first")

        all_outcomes = []
        hw_total = 0
        sw_total = 0
        op_counts: dict[str, int] = {}
        for batch_index, start in enumerate(range(0, len(reads), batch_size)):
            chunk = reads[start : start + batch_size]
            if tel.enabled:
                with correlate(batch=batch_index), tel.span(
                    "fpga.batch", cat="fpga", batch_index=batch_index,
                    n_reads=len(chunk),
                    path="device" if device_ok else "cpu_fallback",
                ):
                    run, stats = self._dispatch_batch(queue, chunk, start, device_ok)
            else:
                run, stats = self._dispatch_batch(queue, chunk, start, device_ok)
            if stats is not None:
                fault_events.extend(stats["events"])
                retries += stats["retries"]
                reprograms += stats["reprograms"]
                overhead_s += stats["overhead_s"]
                degraded |= stats["degraded"]
            all_outcomes.extend(run.outcomes)
            hw_total += run.hw_steps_total
            sw_total += run.sw_steps_total
            for k, v in run.op_counts.items():
                op_counts[k] = op_counts.get(k, 0) + v
        queue.finish()
        if tel.enabled:
            # Put the modeled device timeline on the tracer's clock so
            # application spans and h2d/kernel/d2h slices render together.
            from .tracing import to_trace_events

            tel.tracer.add_raw_events(
                to_trace_events(queue, ts_offset_us=queue_anchor_us)
            )
        host_wall = time.perf_counter() - t0
        if degraded:
            self.health.mark_failed()

        merged = KernelRun(
            outcomes=all_outcomes,
            hw_steps_total=hw_total,
            sw_steps_total=sw_total,
            op_counts=op_counts,
            bram_traffic=self.kernel.bram.traffic(),
        )
        report = self.cost_model.run_report(
            self.structure_bytes, hw_total, len(reads)
        )
        if not include_load:
            report["total_seconds"] -= report["load_seconds"]
            report["load_seconds"] = 0.0
        report["fault_overhead_seconds"] = overhead_s
        report["total_seconds"] += overhead_s
        modeled = report["total_seconds"]
        fault_counts: dict[str, int] = {}
        for ev in fault_events:
            fault_counts[ev.kind] = fault_counts.get(ev.kind, 0) + 1
        return AcceleratorRun(
            kernel_run=merged,
            modeled_seconds=modeled,
            modeled_load_seconds=report["load_seconds"],
            modeled_kernel_seconds=report["kernel_seconds"],
            modeled_transfer_seconds=report["transfer_seconds"],
            host_wall_seconds=host_wall,
            energy_joules=self.cost_model.energy_joules(modeled),
            breakdown=report,
            degraded=degraded,
            retries=retries,
            reprograms=reprograms,
            fault_counts=fault_counts,
            fault_events=fault_events,
            modeled_fault_overhead_seconds=overhead_s,
        )

    def _dispatch_batch(
        self, queue: CommandQueue, chunk: list, start: int, device_ok: bool
    ) -> tuple[KernelRun, dict | None]:
        """One batch through the device ladder, or straight to the CPU.

        Reads with characters outside the 2-bit alphabet cannot be packed
        into query records; they bypass the device (and the CPU fallback)
        and are reported as unmapped outcomes — the accelerator-side half
        of the mapper's N-policy (DESIGN.md §9).
        """
        valid_idx = np.flatnonzero(encode_batch(chunk).valid).tolist()
        if len(valid_idx) == len(chunk):
            if device_ok:
                return self._run_batch_with_recovery(queue, chunk, start)
            return self._cpu_pass(chunk, start), None
        self._record_invalid_reads(len(chunk) - len(valid_idx))
        sub = [chunk[i] for i in valid_idx]
        if not sub:
            run, stats = KernelRun(outcomes=[], hw_steps_total=0, sw_steps_total=0), None
        elif device_ok:
            run, stats = self._run_batch_with_recovery(queue, sub, start)
        else:
            run, stats = self._cpu_pass(sub, start), None
        return self._merge_invalid(run, len(chunk), start, valid_idx), stats

    def _record_invalid_reads(self, n: int) -> None:
        current_counters().reads_invalid += n
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "reads_invalid_total",
                "Reads rejected by the alphabet policy (reported unmapped)",
                labelnames=("path",),
            ).inc(n, path="fpga")

    @staticmethod
    def _merge_invalid(
        run: KernelRun, chunk_len: int, start: int, valid_idx: list[int]
    ) -> KernelRun:
        """Re-number device outcomes to batch positions and splice in
        all-empty outcomes for the screened-out reads."""
        outcomes: list[QueryOutcome | None] = [None] * chunk_len
        for j, i in enumerate(valid_idx):
            o = run.outcomes[j]
            outcomes[i] = QueryOutcome(
                query_id=start + i,
                fwd_start=o.fwd_start,
                fwd_end=o.fwd_end,
                rc_start=o.rc_start,
                rc_end=o.rc_end,
                fwd_steps=o.fwd_steps,
                rc_steps=o.rc_steps,
                fwd_exec_steps=o.fwd_exec_steps,
                rc_exec_steps=o.rc_exec_steps,
            )
        for i in range(chunk_len):
            if outcomes[i] is None:
                outcomes[i] = QueryOutcome(
                    query_id=start + i,
                    fwd_start=0, fwd_end=0, rc_start=0, rc_end=0,
                    fwd_steps=0, rc_steps=0,
                )
        return KernelRun(
            outcomes=outcomes,  # type: ignore[arg-type]
            hw_steps_total=run.hw_steps_total,
            sw_steps_total=run.sw_steps_total,
            op_counts=run.op_counts,
            bram_traffic=run.bram_traffic,
        )

    def _record_run_telemetry(self, tel, run: AcceleratorRun) -> None:
        """Mirror the run's fault/retry/fallback ledger into the registry."""
        m = tel.metrics
        m.counter("fpga_runs_total", "Accelerator mapping runs").inc()
        m.counter("fpga_reads_total", "Reads mapped through the accelerator").inc(
            run.n_reads
        )
        # Declare the ladder counters eagerly so a clean run still exposes
        # them (at zero) next to the fault-path metrics.
        retries = m.counter("fpga_retries_total", "Batch retries after detected faults")
        if run.retries:
            retries.inc(run.retries)
        reprograms = m.counter(
            "fpga_reprograms_total", "Device reset + structure reloads"
        )
        if run.reprograms:
            reprograms.inc(run.reprograms)
        fallbacks = m.counter(
            "fpga_cpu_fallbacks_total", "Runs degraded to the CPU mapper"
        )
        if run.degraded:
            fallbacks.inc()
        detected = m.counter(
            "fault_detected_total",
            "Faults caught by the runtime's integrity checks, by kind",
            labelnames=("kind",),
        )
        for kind, count in run.fault_counts.items():
            detected.inc(count, kind=kind)
        seconds = m.counter(
            "fpga_modeled_stage_seconds_total",
            "Modeled device seconds by pipeline stage",
            labelnames=("stage",),
        )
        seconds.inc(run.modeled_load_seconds, stage="load")
        seconds.inc(run.modeled_kernel_seconds, stage="kernel")
        seconds.inc(run.modeled_transfer_seconds, stage="transfer")
        seconds.inc(run.modeled_fault_overhead_seconds, stage="fault_overhead")
        tel.log.info(
            "fpga.map_batch.done",
            n_reads=run.n_reads,
            modeled_seconds=run.modeled_seconds,
            host_wall_seconds=run.host_wall_seconds,
            degraded=run.degraded,
            retries=run.retries,
            reprograms=run.reprograms,
            fault_counts=run.fault_counts,
            device_state=self.health.state.value,
        )

    # -- recovery ladder -------------------------------------------------------

    def _program_with_recovery(self, queue: CommandQueue) -> tuple[bool, dict]:
        """Program the device under the retry policy.

        Returns ``(device_ok, stats)``; a device that cannot even be
        programmed degrades the whole run to the CPU path instead of
        failing it.
        """
        policy = self.retry_policy
        stats = {"events": [], "retries": 0, "reprograms": 0, "overhead_s": 0.0}
        attempt = 0
        while True:
            try:
                self.program(queue)
                self.health.record_success()
                return True, stats
            except FaultError as exc:
                attempt += 1
                self._record_fault(stats, exc, "program", attempt)
                if attempt > policy.max_retries:
                    if policy.cpu_fallback:
                        return False, stats
                    raise
                stats["retries"] += 1
                self._backoff(stats, attempt)

    def _run_batch_with_recovery(
        self, queue: CommandQueue, chunk: list[str], start_id: int
    ) -> tuple[KernelRun, dict]:
        """One batch through the ladder: retry → reprogram → CPU."""
        policy = self.retry_policy
        stats = {
            "events": [],
            "retries": 0,
            "reprograms": 0,
            "overhead_s": 0.0,
            "degraded": False,
        }
        records = pack_queries(chunk, start_id=start_id)
        attempt = 0
        while True:
            try:
                if self.injector is not None:
                    # A transient upset may have hit the banks since the
                    # last access; the kernel's CRC check must catch it.
                    self.injector.upset_bram(self.kernel.bram)
                run = self._device_pass(queue, records)
                self.health.record_success()
                return run, stats
            except FaultError as exc:
                attempt += 1
                self._record_fault(stats, exc, "map_batch", attempt)
                if attempt > policy.max_retries:
                    if policy.cpu_fallback:
                        stats["degraded"] = True
                        return self._cpu_pass(chunk, start_id), stats
                    raise
                stats["retries"] += 1
                self._backoff(stats, attempt)
                if self.health.consecutive_faults >= policy.reprogram_after:
                    stats["overhead_s"] += self._reset_and_reprogram()
                    stats["reprograms"] += 1

    def _device_pass(self, queue: CommandQueue, records: np.ndarray) -> KernelRun:
        """One attempt of the write → kernel → read → validate flow."""
        qbuf = self.context.create_buffer(max(records.nbytes, 8))
        queue.enqueue_write_buffer(qbuf, records)
        kev = queue.enqueue_kernel(
            lambda r=records: self.kernel.execute(r),
            modeled_seconds_of=lambda run: self.cost_model.kernel_seconds(
                run.hw_steps_total, run.n_reads
            ),
        )
        run: KernelRun = kev.wait()  # type: ignore[assignment]
        result_arr = run.result_array()
        rbuf = self.context.create_buffer(max(result_arr.nbytes, 8))
        rbuf.fill_from_device(result_arr)
        rev = queue.enqueue_read_buffer(rbuf)
        arrived = np.asarray(rev.wait()).reshape(-1, 4)
        validate_result_records(arrived, self.kernel.n_rows)
        return run

    def _cpu_pass(self, chunk: list[str], start_id: int) -> KernelRun:
        """The degradation rung: the same search on the CPU.

        This is literally the same batch mapping the kernel model
        executes, so intervals are bit-identical to a clean device run —
        degradation trades modeled speed, never answers.
        """
        outcomes, hw_total, sw_total = batch_outcomes(
            self.kernel.mapper.map_reads(chunk),
            range(start_id, start_id + len(chunk)),
            self.kernel.ftab,
        )
        return KernelRun(
            outcomes=outcomes,
            hw_steps_total=hw_total,
            sw_steps_total=sw_total,
        )

    def _reset_and_reprogram(self) -> float:
        """Device reset + structure reload; returns modeled seconds.

        The reload is charged through the cost model directly (not the
        fault-injected queue): reprogramming uses the host's golden copy
        over a freshly reset link.
        """
        self.kernel.reprogram()
        self.health.record_reset()
        return self.retry_policy.reset_seconds + self.cost_model.load_seconds(
            self.structure_bytes
        )

    def _record_fault(self, stats: dict, exc: FaultError, stage: str, attempt: int) -> None:
        kind = type(exc).__name__
        self.health.record_fault(kind)
        stats["events"].append(
            FaultEvent(kind=kind, stage=stage, attempt=attempt, detail=str(exc))
        )
        tel = get_telemetry()
        if tel.enabled:
            tel.tracer.instant(
                f"fault.detected.{kind}", cat="fault", stage=stage, attempt=attempt
            )
            tel.log.warning(
                "fault.detected", kind=kind, stage=stage, attempt=attempt,
                detail=str(exc),
            )

    def _backoff(self, stats: dict, attempt: int) -> None:
        seconds = self.retry_policy.backoff_seconds(attempt)
        stats["overhead_s"] += seconds
        if self.retry_policy.sleep and seconds > 0:
            time.sleep(seconds)
