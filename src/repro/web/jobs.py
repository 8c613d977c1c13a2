"""Pipeline job management for the BWaveR web workflow (paper §III-D).

A job executes the paper's three steps over an uploaded reference/reads
pair:

1. *BWT and SA computation* — FASTA → suffix array + BWT;
2. *BWT encoding* — the succinct structure at the requested (b, sf);
3. *Sequence mapping* — FASTQ reads through the software mapper or the
   simulated FPGA accelerator.

Each stage's wall time is recorded on the job (the web UI shows the
same three-step breakdown as the paper's Fig. 4 coloring), and the
result is a downloadable hits table.  Jobs run either synchronously
(``background=False``, used by tests and the WSGI app's default) or
through a bounded executor (:class:`~repro.serving.executor.BoundedExecutor`):
at most ``job_workers`` jobs run concurrently, at most ``job_backlog``
wait queued, and submissions beyond that raise
:class:`~repro.serving.executor.Overloaded` (HTTP 503 at the server).

Jobs are fault-tolerant.  A :class:`~repro.faults.FaultPlan` (configured
on the manager or per submission) scripts device faults; the pipeline
applies per-stage deadlines and a per-job retry budget
(:class:`JobPolicy`), and when the device path cannot be salvaged the
job completes through the bit-identical CPU mapper in the ``DEGRADED``
terminal state — distinct from ``ERROR``, because the user still gets
correct results.  Fault and retry counters surface on the job summary.
"""

from __future__ import annotations

import io
import itertools
import threading
import time
import traceback
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Literal

from ..faults import FaultError, FaultPlan, RetryPolicy
from ..io.fasta import read_fasta_str
from ..io.fastq import read_fastq_str
from ..mapper.mapper import Mapper
from ..mapper.results import mapping_ratio, write_hits_tsv
from ..serving.executor import BoundedExecutor, Overloaded
from ..telemetry import correlate, get_telemetry

if TYPE_CHECKING:  # device jobs import the FPGA model on first use
    from ..fpga.accelerator import FPGAAccelerator

Device = Literal["cpu", "fpga"]


class JobStatus(Enum):
    """Lifecycle of a pipeline job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    ERROR = "error"
    #: Completed with correct results, but through the CPU fallback after
    #: the device retry budget was exhausted.
    DEGRADED = "degraded"


class StageDeadlineExceeded(RuntimeError):
    """A pipeline stage overran its configured wall-clock deadline."""


@dataclass(frozen=True)
class JobPolicy:
    """Per-job reliability policy.

    ``stage_deadline_seconds`` is either one deadline applied to every
    stage or a ``{stage_name: seconds}`` mapping (stages: ``parse_inputs``,
    ``bwt_sa_computation``, ``bwt_encoding``, ``sequence_mapping``).
    Deadlines are checked when a stage completes — pure-Python stages
    cannot be preempted, so an overrun is detected, not interrupted.
    ``max_map_attempts`` is the job-level retry budget for the device
    mapping stage (each attempt internally carries the accelerator's own
    per-batch retry ladder).
    """

    stage_deadline_seconds: float | dict[str, float] | None = None
    max_map_attempts: int = 2

    def deadline_for(self, stage: str) -> float | None:
        if self.stage_deadline_seconds is None:
            return None
        if isinstance(self.stage_deadline_seconds, dict):
            return self.stage_deadline_seconds.get(stage)
        return float(self.stage_deadline_seconds)


@dataclass
class Job:
    """One pipeline execution and its lifecycle."""

    job_id: int
    reference_fasta: str
    reads_fastq: str
    b: int = 15
    sf: int = 50
    device: Device = "fpga"
    status: JobStatus = JobStatus.QUEUED
    error: str = ""
    stage_seconds: dict[str, float] = field(default_factory=dict)
    n_reads: int = 0
    n_mapped: int = 0
    reference_name: str = ""
    reference_length: int = 0
    modeled_device_seconds: float | None = None
    results_tsv: str = ""
    results_sam: str = ""
    qc: dict = field(default_factory=dict)
    qc_warnings: list[str] = field(default_factory=list)
    fault_plan: FaultPlan | None = None
    #: Failure bookkeeping (dedicated fields — ``stage_seconds`` holds
    #: only durations).
    failed_stage: str = ""
    failed_at: float | None = None
    #: Fault-tolerance ledger.
    degraded: bool = False
    degraded_reason: str = ""
    retries: int = 0
    map_attempts: int = 0
    fault_counts: dict[str, int] = field(default_factory=dict)
    _current_stage: str = field(default="", repr=False)

    def summary(self) -> dict:
        """JSON-able status document served by ``GET /jobs/<id>``."""
        return {
            "job_id": self.job_id,
            "status": self.status.value,
            "error": self.error,
            "device": self.device,
            "b": self.b,
            "sf": self.sf,
            "reference": self.reference_name,
            "reference_length": self.reference_length,
            "n_reads": self.n_reads,
            "n_mapped": self.n_mapped,
            "mapping_ratio": (self.n_mapped / self.n_reads) if self.n_reads else 0.0,
            "stage_seconds": dict(self.stage_seconds),
            "modeled_device_seconds": self.modeled_device_seconds,
            "qc": dict(self.qc),
            "qc_warnings": list(self.qc_warnings),
            "failed_stage": self.failed_stage,
            "failed_at": self.failed_at,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "retries": self.retries,
            "map_attempts": self.map_attempts,
            "fault_counts": dict(self.fault_counts),
        }

    def _merge_fault_counts(self, counts: dict[str, int]) -> None:
        for kind, n in counts.items():
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + n


class JobManager:
    """Creates, runs and looks up jobs.

    Parameters
    ----------
    fault_plan:
        Default fault scenario applied to every job's device stage
        (submissions may override per job).
    policy:
        Stage deadlines and the job-level mapping retry budget.
    retry_policy:
        The accelerator's per-batch recovery ladder.
    job_workers, job_backlog:
        Background-execution caps: at most ``job_workers`` jobs run
        concurrently and at most ``job_backlog`` wait queued; a
        submission beyond both raises
        :class:`~repro.serving.executor.Overloaded`.
    mapping_service:
        Optional :class:`~repro.serving.coalescer.MappingService` — a
        preloaded served index behind a request coalescer.  Jobs still
        build per-upload indexes; the service is the shared-index fast
        path (``POST /map``) that merges concurrent small requests into
        shared kernel batches.  Owned by the manager: ``shutdown`` closes
        it after the job executor drains.
    """

    def __init__(
        self,
        fault_plan: FaultPlan | None = None,
        policy: JobPolicy | None = None,
        retry_policy: RetryPolicy | None = None,
        job_workers: int = 2,
        job_backlog: int = 8,
        mapping_service=None,
    ):
        self._jobs: dict[int, Job] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.fault_plan = fault_plan
        self.policy = policy if policy is not None else JobPolicy()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.executor = BoundedExecutor(
            workers=job_workers, backlog=job_backlog, name="web-jobs"
        )
        self.mapping_service = mapping_service
        #: Health snapshot of the device used by the most recent FPGA job
        #: (what ``GET /healthz`` reports).
        self.last_device_health: dict | None = None

    def counts_by_status(self) -> dict[str, int]:
        """Job tallies per lifecycle state (the /healthz queue view)."""
        counts = {status.value: 0 for status in JobStatus}
        for job in self._jobs.values():
            counts[job.status.value] += 1
        return counts

    def queue_depth(self) -> int:
        """Jobs submitted but not yet in a terminal state."""
        counts = self.counts_by_status()
        return counts["queued"] + counts["running"]

    def concurrency(self) -> dict:
        """Executor caps and occupancy (the /healthz concurrency view)."""
        return {
            "job_workers": self.executor.workers,
            "job_backlog": self.executor.backlog,
            "pending": self.executor.pending(),
            "queued": self.executor.queued(),
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the background executor (queued jobs are drained first),
        then the mapping service's coalescer and pool."""
        self.executor.shutdown(wait=wait)
        if self.mapping_service is not None:
            self.mapping_service.close()

    def submit(
        self,
        reference_fasta: str,
        reads_fastq: str,
        b: int = 15,
        sf: int = 50,
        device: Device = "fpga",
        background: bool = False,
        fault_plan: FaultPlan | None = None,
    ) -> Job:
        if device not in ("cpu", "fpga"):
            raise ValueError(f"unknown device {device!r} (expected 'cpu' or 'fpga')")
        with self._lock:
            job = Job(
                job_id=next(self._ids),
                reference_fasta=reference_fasta,
                reads_fastq=reads_fastq,
                b=int(b),
                sf=int(sf),
                device=device,
                fault_plan=fault_plan if fault_plan is not None else self.fault_plan,
            )
            self._jobs[job.job_id] = job
        if background:
            try:
                self.executor.submit(lambda: self._run(job))
            except Overloaded:
                # The job never ran; drop it so the rejected submission
                # leaves no QUEUED ghost in listings.
                with self._lock:
                    self._jobs.pop(job.job_id, None)
                raise
        else:
            self._run(job)
        return job

    def get(self, job_id: int) -> Job | None:
        return self._jobs.get(job_id)

    def all_jobs(self) -> list[Job]:
        return sorted(self._jobs.values(), key=lambda j: j.job_id)

    # -- pipeline ---------------------------------------------------------------

    def _run(self, job: Job) -> None:
        job.status = JobStatus.RUNNING
        tel = get_telemetry()
        gauge = tel.metrics.gauge("web_jobs_running", "Jobs currently executing")
        gauge.inc()
        try:
            with correlate(job_id=job.job_id):
                with tel.span(
                    "web.job", cat="web", job_id=job.job_id, device=job.device,
                ):
                    self._execute(job)
            job.status = JobStatus.DEGRADED if job.degraded else JobStatus.DONE
        except Exception as exc:  # surface any stage failure on the job
            job.status = JobStatus.ERROR
            job.error = f"{type(exc).__name__}: {exc}"
            job.failed_stage = job._current_stage
            job.failed_at = time.time()
            job.results_tsv = ""
            # Keep the traceback server-side for debugging, not in the UI.
            job._traceback = traceback.format_exc()  # type: ignore[attr-defined]
        finally:
            gauge.dec()
            tel.metrics.counter(
                "web_jobs_total", "Jobs finished, by terminal status",
                labelnames=("status",),
            ).inc(status=job.status.value)
            stage_hist = tel.metrics.histogram(
                "web_job_stage_seconds", "Wall seconds per job pipeline stage",
                labelnames=("stage",),
            )
            for stage, seconds in job.stage_seconds.items():
                stage_hist.observe(seconds, stage=stage)
            tel.log.info(
                "web.job.finished",
                job_id=job.job_id,
                status=job.status.value,
                device=job.device,
                n_reads=job.n_reads,
                n_mapped=job.n_mapped,
                degraded=job.degraded,
                retries=job.retries,
                error=job.error,
            )

    def _check_deadline(self, job: Job, stage: str, elapsed: float) -> None:
        deadline = self.policy.deadline_for(stage)
        if deadline is not None and elapsed > deadline:
            raise StageDeadlineExceeded(
                f"stage {stage!r} took {elapsed:.3f}s, over its "
                f"{deadline:.3f}s deadline"
            )

    def _execute(self, job: Job) -> None:
        tel = get_telemetry()
        job._current_stage = "parse_inputs"
        t_parse = time.perf_counter()
        with tel.span("web.stage.parse_inputs", cat="web"):
            records = self._parse_reference(job)
        ref = records[0]

        reads = read_fastq_str(job.reads_fastq)
        if not reads:
            raise ValueError("reads FASTQ contains no records")
        job.n_reads = len(reads)

        # QC pass before spending build/map time; warnings surface on the
        # status document but never block the job.
        from ..io.qc import qc_reads

        qc = qc_reads(reads)
        job.qc = qc.to_dict()
        job.qc_warnings = qc.warnings()
        self._check_deadline(job, "parse_inputs", time.perf_counter() - t_parse)

        # Step 1 + 2: build (the builder reports both stage times).  Imported
        # here: a server that only maps never loads the builder.
        from ..index.builder import build_index

        job._current_stage = "bwt_sa_computation"
        with tel.span("web.stage.build_index", cat="web", b=job.b, sf=job.sf):
            index, report = build_index(ref.sequence, b=job.b, sf=job.sf)
        job.stage_seconds["bwt_sa_computation"] = report.sa_bwt_seconds
        job.stage_seconds["bwt_encoding"] = report.encode_seconds
        self._check_deadline(job, "bwt_sa_computation", report.sa_bwt_seconds)
        job._current_stage = "bwt_encoding"
        self._check_deadline(job, "bwt_encoding", report.encode_seconds)

        # Step 3: mapping, on the requested device.
        job._current_stage = "sequence_mapping"
        seqs = [r.sequence for r in reads]
        names = [r.name for r in reads]
        t0 = time.perf_counter()
        with tel.span("web.stage.sequence_mapping", cat="web", device=job.device):
            if job.device == "fpga":
                self._map_on_device(job, index, seqs)
            # Final results always come from the host-side locate pass (for
            # the fpga device this is the paper's host locate step; when the
            # device degraded, it doubles as the bit-identical CPU fallback).
            mapper = Mapper(index, locate=True)
            results = mapper.map_reads(seqs, names=names)
        elapsed = time.perf_counter() - t0
        job.stage_seconds["sequence_mapping"] = elapsed
        if job.device == "cpu":
            self._check_deadline(job, "sequence_mapping", elapsed)

        job.n_mapped = round(mapping_ratio(results) * len(results))
        buf = io.StringIO()
        write_hits_tsv(results, buf)
        job.results_tsv = buf.getvalue()
        sam_buf = io.StringIO()
        from ..mapper.sam import write_sam_single

        write_sam_single(
            results,
            seqs,
            sam_buf,
            reference_name=job.reference_name,
            reference_length=job.reference_length,
        )
        job.results_sam = sam_buf.getvalue()

    def _parse_reference(self, job: Job):
        records = read_fasta_str(job.reference_fasta, on_invalid="random")
        if not records:
            raise ValueError("reference FASTA contains no records")
        ref = records[0]
        if len(records) > 1:
            raise ValueError(
                "multi-record references are not supported; upload one sequence"
            )
        if not ref.sequence:
            raise ValueError(f"reference {ref.name!r} is empty")
        job.reference_name = ref.name
        job.reference_length = len(ref.sequence)
        return records

    def _map_on_device(self, job: Job, index, seqs: list[str]) -> None:
        """Device mapping under the job-level retry budget.

        Each attempt runs the accelerator (which carries its own
        per-batch ladder).  An attempt fails the job-level budget when
        the accelerator raises (``cpu_fallback`` disabled in its policy)
        or the stage overruns its deadline; exhausting the budget —
        like the accelerator's own internal degradation — completes the
        job via the CPU path in the ``DEGRADED`` state.
        """
        from ..fpga.accelerator import FPGAAccelerator

        deadline = self.policy.deadline_for("sequence_mapping")
        acc = FPGAAccelerator.for_index(
            index, fault_plan=job.fault_plan, retry_policy=self.retry_policy
        )
        try:
            self._run_map_attempts(job, acc, seqs, deadline)
        finally:
            self.last_device_health = acc.health.to_dict()

    def _run_map_attempts(
        self, job: Job, acc: FPGAAccelerator, seqs: list[str], deadline: float | None
    ) -> None:
        last_failure = ""
        for attempt in range(1, max(1, self.policy.max_map_attempts) + 1):
            job.map_attempts = attempt
            t0 = time.perf_counter()
            try:
                run = acc.map_batch(seqs)
            except FaultError as exc:
                job.retries += 1
                job._merge_fault_counts({type(exc).__name__: 1})
                last_failure = f"{type(exc).__name__}: {exc}"
                continue
            job.retries += run.retries
            job._merge_fault_counts(run.fault_counts)
            elapsed = time.perf_counter() - t0
            if deadline is not None and elapsed > deadline:
                job._merge_fault_counts({"StageDeadlineExceeded": 1})
                last_failure = (
                    f"mapping attempt took {elapsed:.3f}s, over its "
                    f"{deadline:.3f}s deadline"
                )
                continue
            job.modeled_device_seconds = run.modeled_seconds
            if run.degraded:
                job.degraded = True
                job.degraded_reason = (
                    "accelerator retry budget exhausted "
                    f"({run.retries} retries, {run.reprograms} reprograms); "
                    "results served from the CPU fallback"
                )
            return
        job.degraded = True
        job.degraded_reason = (
            f"device mapping failed {job.map_attempts} attempt(s) "
            f"(last: {last_failure}); results served from the CPU fallback"
        )
