"""Dynamic micro-batching: merge concurrent small requests into shared batches.

The batch kernels (``search_batch``, the fused ``occ2_many`` descent)
are fastest at high occupancy — the software mirror of the paper's FPGA
pipeline, which only earns its throughput when queries keep every stage
busy.  A flood of small independent requests (the web tier's traffic
shape) runs those kernels at their worst occupancy: each request pays
the full per-dispatch fixed cost for a handful of reads.

:class:`RequestCoalescer` sits between request producers (web jobs, the
streaming mapper, benchmarks) and a batch ``dispatch`` callable (an
in-process :class:`~repro.mapper.mapper.Mapper`, a shared-memory
:class:`~repro.serving.pool.MapperPool`, or the simulated accelerator)
and merges pending requests into shared kernel batches under two bounds:

* **deadline** — a request is dispatched at most ``window_seconds``
  after submission, even alone;
* **size** — a batch flushes early once ``max_batch_reads`` reads are
  pending, so the window never delays an already-full batch.

Admission is **tenant-fair**: pending requests queue per tenant and the
batch builder takes one request per tenant per round-robin cycle, so a
tenant with a thousand queued requests cannot starve an interactive
tenant's single read — the interactive request rides the very next
batch.

Demultiplexing is **bit-identical**: merged results are sliced back per
request and renumbered exactly as an independent ``map_reads`` call
would have numbered them, so coalescing is invisible to callers (the
differential self-check pair ``coalesce`` and the CI parity step enforce
this).

When a merged dispatch fails (a pool worker died, the device path
raised), the coalescer **falls back per request** through ``fallback`` —
by convention the in-process CPU mapper, the terminal rung of the
retry → reprogram → CPU fault ladder — so one poisoned batch degrades
to independent execution instead of failing every rider.

:class:`MappingService` is the one admission path of every served
``POST /map`` request: ``map_request`` → admission cap → the coalescer
thread → dispatch.  A request that needs its own dispatch (a shard
subset of :class:`~repro.serving.router.RouterMappingService`) takes
the same path and rides in a batch of its own.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..mapper.results import MappedBatch, MappingResult, renumbered
from ..telemetry import get_telemetry
from .executor import Overloaded

#: Batch-size histogram buckets (reads per merged batch).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)
#: Queue-wait histogram buckets (seconds; sub-window resolution).
_WAIT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 1.0,
)
#: Recent queue waits kept for the /healthz p95 (bounded reservoir).
_WAIT_SAMPLES = 512

#: A batch executor: reads in, one :class:`MappingResult` per read out,
#: ``read_id`` numbered by position in the batch.
Dispatch = Callable[[list[str]], list[MappingResult]]


class CoalescerError(RuntimeError):
    """Base class for coalescer lifecycle errors."""


class CoalescerClosed(CoalescerError):
    """Submission after :meth:`RequestCoalescer.close`."""


class RequestTooLarge(ValueError):
    """A request holds more reads than the admission cap: it can never
    be admitted, however idle the queue (HTTP 413 at the web tier)."""


@dataclass(frozen=True)
class CoalescerConfig:
    """Flush policy and admission bounds.

    ``window_seconds`` is the max added latency a request can pay for the
    chance to share a batch; ``max_batch_reads`` caps merged batch size
    (flush fires on whichever bound is hit first).  ``max_queue_reads``
    is the admission cap — reads pending beyond it get
    :class:`~repro.serving.executor.Overloaded` instead of unbounded
    queueing.
    """

    window_seconds: float = 0.002
    max_batch_reads: int = 512
    max_queue_reads: int = 65_536

    def __post_init__(self) -> None:
        if self.window_seconds < 0:
            raise ValueError("window_seconds must be >= 0")
        if self.max_batch_reads < 1:
            raise ValueError("max_batch_reads must be >= 1")
        if self.max_queue_reads < self.max_batch_reads:
            raise ValueError("max_queue_reads must be >= max_batch_reads")


class CoalescedRequest:
    """Future-like handle for one submitted request.

    ``result()`` blocks until the request's batch has been dispatched and
    demultiplexed; results are renumbered to request-local ``read_id``s,
    bit-identical to an independent execution of the same reads.
    ``dispatch`` is the request's own executor, or ``None`` for the
    coalescer's: only requests without one share a batch.
    """

    __slots__ = (
        "reads", "tenant", "dispatch", "submitted_at", "deadline",
        "batch_reads", "wait_seconds", "added_wait_seconds",
        "degraded", "degraded_reason",
        "_event", "_results", "_error",
    )

    def __init__(
        self,
        reads: list[str],
        tenant: str,
        deadline: float,
        dispatch: Dispatch | None = None,
    ):
        self.reads = reads
        self.tenant = tenant
        self.dispatch = dispatch
        self.submitted_at = time.monotonic()
        self.deadline = deadline
        #: Size of the merged batch this request rode in (1-request
        #: batches mean no sharing happened).
        self.batch_reads = 0
        #: Queue wait: submission to batch dispatch start.
        self.wait_seconds = 0.0
        #: The part of the wait the coalescing *window* added: dispatch
        #: start minus the moment the request could first have run
        #: (submission, or the dispatcher coming free, whichever is
        #: later).  Head-of-line time behind an in-flight batch is
        #: queueing at saturation, not a cost of coalescing, and is
        #: excluded here.  This is the acceptance metric bounded by
        #: ``window_seconds``.
        self.added_wait_seconds = 0.0
        #: True when the merged dispatch failed and this request was
        #: recovered through the per-request fallback path.
        self.degraded = False
        self.degraded_reason = ""
        self._event = threading.Event()
        self._results: list[MappingResult] | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> list[MappingResult]:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"coalesced request ({len(self.reads)} reads, tenant "
                f"{self.tenant!r}) not completed within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._results is not None
        return self._results

    def _complete(self, results: list[MappingResult]) -> None:
        self._results = results
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()


def _renumber(results: Sequence, offset: int) -> Sequence:
    """Slice-local renumbering: what independent execution would produce.

    Handles :class:`MappingResult` sequences (single-index dispatch; a
    :class:`MappedBatch` slice stays columnar) and any other frozen
    result dataclass keyed only by ``read_id`` — e.g. the shard router's
    :class:`~repro.index.multiref.MultiRefMapping`.
    """
    if isinstance(results, MappedBatch) or (
        results and isinstance(results[0], MappingResult)
    ):
        return renumbered(results, -offset)
    if offset == 0:
        return list(results)
    return [dataclasses.replace(r, read_id=r.read_id - offset) for r in results]


class RequestCoalescer:
    """Deadline-bounded, tenant-fair micro-batcher over a batch executor.

    Parameters
    ----------
    dispatch:
        Batch executor for merged read lists (``MapperPool.map_reads``,
        an in-process ``Mapper.map_reads``, ...).  Must return one
        result per read, numbered by batch position.
    fallback:
        Per-request recovery executor used when a merged dispatch
        raises; the convention is the in-process CPU mapper — the same
        terminal rung as the accelerator's retry → reprogram → CPU
        ladder.  ``None`` retries each request through ``dispatch``
        individually (so one bad rider cannot fail the others).
    config:
        Flush policy and admission bounds.
    name:
        Telemetry label.
    """

    def __init__(
        self,
        dispatch: Dispatch,
        fallback: Dispatch | None = None,
        config: CoalescerConfig | None = None,
        name: str = "coalesce",
    ):
        self.dispatch = dispatch
        self.fallback = fallback
        self.config = config if config is not None else CoalescerConfig()
        self.name = name
        self._lock = threading.RLock()  # reentrant: stats() under _cv is legal
        self._cv = threading.Condition(self._lock)
        self._queues: dict[str, deque[CoalescedRequest]] = {}
        self._rr: deque[str] = deque()  # tenant round-robin order
        self._pending_reads = 0
        self._closed = False
        self._thread: threading.Thread | None = None
        # Stats (guarded by _lock).
        self._requests_total = 0
        self._reads_total = 0
        self._batches_total = 0
        self._coalesced_requests = 0
        self._fallbacks = 0
        self._last_batch_reads = 0
        self._wait_samples: deque[float] = deque(maxlen=_WAIT_SAMPLES)
        self._added_wait_samples: deque[float] = deque(maxlen=_WAIT_SAMPLES)
        #: When the dispatcher last came free (monotonic); requests
        #: arriving before this could not have run earlier anyway.
        self._dispatch_free_at = 0.0

    # -- submission --------------------------------------------------------

    def submit(
        self,
        reads: Sequence[str],
        tenant: str = "default",
        dispatch: Dispatch | None = None,
    ) -> CoalescedRequest:
        """Enqueue one request; returns immediately with a result handle.

        A request given its own ``dispatch`` is admitted like any other
        but never shares a batch: it rides alone.
        """
        reads = list(reads)
        cap = self.config.max_queue_reads
        if len(reads) > cap:
            raise RequestTooLarge(
                f"{self.name}: request of {len(reads)} reads exceeds the "
                f"admission cap of {cap} reads"
            )
        deadline = time.monotonic() + self.config.window_seconds
        req = CoalescedRequest(reads, str(tenant), deadline, dispatch)
        if not reads:  # nothing to merge; complete without a batch slot
            req._complete([])
            return req
        with self._cv:
            if self._closed:
                raise CoalescerClosed(f"{self.name}: coalescer is closed")
            if self._pending_reads + len(reads) > cap:
                get_telemetry().metrics.counter(
                    "coalesce_rejected_total",
                    "Requests rejected by the coalescer admission cap",
                ).inc()
                raise Overloaded(
                    f"{self.name}: {self._pending_reads} reads pending "
                    f"+ {len(reads)} > cap {cap}",
                    retry_after=1,
                )
            q = self._queues.get(req.tenant)
            if q is None:
                q = self._queues[req.tenant] = deque()
                self._rr.append(req.tenant)
            q.append(req)
            self._pending_reads += len(reads)
            self._requests_total += 1
            self._reads_total += len(reads)
            self._ensure_thread()
            self._cv.notify_all()
        get_telemetry().metrics.gauge(
            "coalesce_queue_depth", "Reads pending in the request coalescer"
        ).set(self._pending_reads)
        return req

    def map_reads(
        self,
        reads: Sequence[str],
        tenant: str = "default",
        timeout: float | None = 60.0,
    ) -> list[MappingResult]:
        """Submit and wait: the synchronous convenience wrapper."""
        return self.submit(reads, tenant=tenant).result(timeout=timeout)

    def map_many(
        self, request_lists: Iterable[Sequence[str]], tenant: str = "default"
    ) -> list[list[MappingResult]]:
        """Merge a known set of requests through the batch path, bypassing
        the wait window (no flusher thread, no deadline).

        Runs the exact merge → dispatch → demux code the background
        flusher uses, chunked at ``max_batch_reads``, which makes it the
        deterministic entry point for parity tests and benchmarks.
        """
        requests = [
            CoalescedRequest(list(reads), str(tenant), deadline=0.0)
            for reads in request_lists
        ]
        batch: list[CoalescedRequest] = []
        size = 0
        for req in requests:
            if not req.reads:
                req._complete([])
                continue
            if batch and size + len(req.reads) > self.config.max_batch_reads:
                self._run_batch(batch)
                batch, size = [], 0
            batch.append(req)
            size += len(req.reads)
        if batch:
            self._run_batch(batch)
        return [req.result(timeout=0.0) for req in requests]

    # -- lifecycle ---------------------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._flusher, name=f"{self.name}-flusher", daemon=True
            )
            self._thread.start()

    def flush(self) -> None:
        """Wake the flusher so pending requests dispatch without waiting
        out the window (used by shutdown paths and tests)."""
        with self._cv:
            for q in self._queues.values():
                for req in q:
                    req.deadline = 0.0
            self._cv.notify_all()

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; pending ones are drained, not failed."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            for q in self._queues.values():
                for req in q:
                    req.deadline = 0.0  # drain immediately
            self._cv.notify_all()
        if wait and self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- flusher -----------------------------------------------------------

    def _flusher(self) -> None:
        while True:
            with self._cv:
                while self._pending_reads == 0:
                    if self._closed:
                        return
                    self._cv.wait()
                # Wait for the size bound or the oldest request's deadline,
                # whichever comes first.
                while self._pending_reads < self.config.max_batch_reads:
                    now = time.monotonic()
                    oldest = min(
                        q[0].deadline for q in self._queues.values() if q
                    )
                    if now >= oldest or self._closed:
                        break
                    self._cv.wait(timeout=oldest - now)
                    if self._pending_reads == 0:
                        break
                if self._pending_reads == 0:
                    continue
                batch = self._take_batch_locked()
            self._run_batch(batch)

    def _take_batch_locked(self) -> list[CoalescedRequest]:
        """Round-robin across tenants: one whole request per tenant per
        cycle until the batch is full.  The first request is always
        admitted even when it alone exceeds ``max_batch_reads`` (a giant
        request must not deadlock the queue); a request with its own
        dispatch is only ever taken alone."""
        batch: list[CoalescedRequest] = []
        size = 0
        while self._rr:
            progressed = False
            for _ in range(len(self._rr)):
                if not self._rr:
                    break
                tenant = self._rr[0]
                q = self._queues.get(tenant)
                if not q:
                    # Empty tenant queue: drop it from the rotation.
                    self._rr.popleft()
                    self._queues.pop(tenant, None)
                    continue
                head = q[0]
                if batch and (
                    head.dispatch is not None
                    or size + len(head.reads) > self.config.max_batch_reads
                ):
                    return batch
                q.popleft()
                self._pending_reads -= len(head.reads)
                batch.append(head)
                size += len(head.reads)
                progressed = True
                self._rr.rotate(-1)
                if head.dispatch is not None or size >= self.config.max_batch_reads:
                    return batch
            if not progressed:
                break
        return batch

    # -- dispatch + demux --------------------------------------------------

    def _run_batch(self, batch: list[CoalescedRequest]) -> None:
        if not batch:
            return
        tel = get_telemetry()
        started = time.monotonic()
        free_at = self._dispatch_free_at
        merged: list[str] = []
        for req in batch:
            req.wait_seconds = max(0.0, started - req.submitted_at)
            req.added_wait_seconds = max(
                0.0, started - max(req.submitted_at, free_at)
            )
            merged.extend(req.reads)
        for req in batch:
            req.batch_reads = len(merged)
        try:
            results = (batch[0].dispatch or self.dispatch)(merged)
            if len(results) != len(merged):
                raise CoalescerError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(merged)} reads"
                )
            offset = 0
            for req in batch:
                req._complete(
                    _renumber(results[offset : offset + len(req.reads)], offset)
                )
                offset += len(req.reads)
        except Exception as exc:
            self._fallback_batch(batch, exc)
        self._dispatch_free_at = time.monotonic()
        with self._lock:
            self._batches_total += 1
            self._last_batch_reads = len(merged)
            if len(batch) > 1:
                self._coalesced_requests += len(batch)
            for req in batch:
                self._wait_samples.append(req.wait_seconds)
                self._added_wait_samples.append(req.added_wait_seconds)
        m = tel.metrics
        m.histogram(
            "coalesce_batch_size",
            "Reads per merged coalescer batch",
            buckets=_BATCH_SIZE_BUCKETS,
        ).observe(len(merged))
        wait_hist = m.histogram(
            "coalesce_wait_seconds",
            "Queue wait per coalesced request (submission to dispatch)",
            buckets=_WAIT_BUCKETS,
        )
        for req in batch:
            wait_hist.observe(req.wait_seconds)
        if len(batch) > 1:
            m.counter(
                "coalesced_jobs_total",
                "Requests that shared a merged kernel batch",
            ).inc(len(batch))
        m.counter(
            "coalesce_batches_total", "Merged batches dispatched"
        ).inc()
        m.gauge(
            "coalesce_queue_depth", "Reads pending in the request coalescer"
        ).set(self._pending_reads)

    def _fallback_batch(self, batch: list[CoalescedRequest], exc: Exception) -> None:
        """Merged dispatch failed: recover each rider independently.

        With a ``fallback`` executor (the CPU mapper), requests complete
        DEGRADED-but-correct; without one, each rider of a shared batch
        retries through ``dispatch`` alone so a poisoned rider fails only
        itself.  A lone request (and so any request with its own
        dispatch) is never re-run through the dispatch that just failed:
        it fails at once with the original reason.
        """
        tel = get_telemetry()
        cause = f"{type(exc).__name__}: {exc}"
        reason = f"merged batch failed ({cause})"
        shared = len(batch) > 1
        for req in batch:
            if req.dispatch is None:
                runner = self.fallback or (self.dispatch if shared else None)
            else:
                runner = None
            if runner is None:
                req._fail(CoalescerError(f"dispatch failed ({cause})"))
                continue
            tel.metrics.counter(
                "coalesce_fallback_total",
                "Requests recovered per-request after a failed merged batch",
            ).inc()
            with self._lock:
                self._fallbacks += 1
            try:
                results = runner(list(req.reads))
                if len(results) != len(req.reads):
                    raise CoalescerError(
                        f"fallback returned {len(results)} results for "
                        f"{len(req.reads)} reads"
                    )
                req.degraded = True
                req.degraded_reason = reason
                req._complete(list(results))
            except Exception as fexc:  # noqa: BLE001 - surfaced on the handle
                req._fail(
                    CoalescerError(f"{reason}; fallback also failed: {fexc}")
                )

    # -- introspection -----------------------------------------------------

    def pending_reads(self) -> int:
        with self._lock:
            return self._pending_reads

    def stats(self) -> dict:
        """JSON-able state document (surfaced on ``/healthz``)."""
        def _p95(samples: deque) -> float:
            waits = sorted(samples)
            return waits[int(0.95 * (len(waits) - 1))] if waits else 0.0

        with self._lock:
            p95 = _p95(self._wait_samples)
            added_p95 = _p95(self._added_wait_samples)
            batches = self._batches_total
            return {
                "window_ms": self.config.window_seconds * 1e3,
                "max_batch_reads": self.config.max_batch_reads,
                "max_queue_reads": self.config.max_queue_reads,
                "pending_reads": self._pending_reads,
                "pending_requests": sum(len(q) for q in self._queues.values()),
                "tenants": len(self._queues),
                "requests_total": self._requests_total,
                "reads_total": self._reads_total,
                "batches_total": batches,
                "coalesced_requests": self._coalesced_requests,
                "fallbacks": self._fallbacks,
                "last_batch_reads": self._last_batch_reads,
                "mean_batch_reads": (
                    self._reads_total / batches if batches else 0.0
                ),
                "wait_p95_ms": p95 * 1e3,
                "added_wait_p95_ms": added_p95 * 1e3,
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        return (
            f"RequestCoalescer(name={self.name!r}, "
            f"window={self.config.window_seconds * 1e3:.1f}ms, "
            f"max_batch={self.config.max_batch_reads}, "
            f"pending_reads={self.pending_reads()})"
        )


class MappingService:
    """A served index plus the coalescer that batches requests onto it.

    This is the object the web tier's ``POST /map`` endpoint talks to:
    one published index (optionally behind a shared-memory
    :class:`~repro.serving.pool.MapperPool`), an in-process CPU mapper as
    the fallback rung, and a :class:`RequestCoalescer` merging concurrent
    requests into shared kernel batches.  Every request takes the one
    admission path in :meth:`map_request`; uncoalesced dispatch is the
    config ``CoalescerConfig(window_seconds=0, max_batch_reads=1)``.

    Parameters
    ----------
    index:
        The query index every request maps against.
    pool_workers:
        ``> 0`` routes merged batches through a shared-memory
        ``MapperPool`` with that many worker processes; ``0`` dispatches
        through the in-process mapper (still coalesced).
    locate:
        Resolve SA intervals to positions (the web results contract).
    config:
        Coalescer flush policy and admission bounds.
    """

    def __init__(
        self,
        index,
        *,
        pool_workers: int = 0,
        locate: bool = True,
        config: CoalescerConfig | None = None,
        start_method: str | None = None,
    ):
        from ..mapper.mapper import Mapper

        self.index = index
        self.locate = bool(locate)
        self._mapper = Mapper(index, locate=self.locate)
        self.pool = None
        dispatch: Dispatch = self._mapper.map_reads
        if pool_workers > 0:
            from .pool import MapperPool

            self.pool = MapperPool(
                index, workers=pool_workers, start_method=start_method
            )
            dispatch = lambda reads: self.pool.map_reads(  # noqa: E731
                reads, locate=self.locate
            )
        self.coalescer = RequestCoalescer(
            dispatch,
            fallback=self._mapper.map_reads,
            config=config,
            name="mapping-service",
        )

    _closed = False

    def _dispatch_for(self, shards: Sequence[str] | None) -> Dispatch | None:
        """The dispatch a shard selection needs; ``None`` is the service's
        own, the one requests merge on."""
        if shards is not None:
            raise ValueError("a single served index has no shards to select")
        return None

    def map_request(
        self,
        reads: Sequence[str],
        tenant: str = "default",
        timeout: float | None = 60.0,
        shards: Sequence[str] | None = None,
    ) -> CoalescedRequest:
        """Map one request; blocks until its (possibly shared) batch ran.

        Returns the completed handle so callers can read wait/degraded
        bookkeeping next to the results.  Raises
        :class:`RequestTooLarge`, :class:`~repro.serving.executor
        .Overloaded`, :class:`CoalescerClosed`, :class:`CoalescerError`
        (dispatch and its fallback both failed) or ``TimeoutError``.
        """
        if self._closed:
            raise CoalescerClosed("mapping service is closed")
        req = self.coalescer.submit(
            reads, tenant=tenant, dispatch=self._dispatch_for(shards)
        )
        req.result(timeout=timeout)
        return req

    def stats(self) -> dict:
        doc = self.coalescer.stats()
        doc["pool_workers"] = self.pool.workers if self.pool is not None else 0
        doc["locate"] = self.locate
        return doc

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.coalescer.close()
        self._close_backend()

    def _close_backend(self) -> None:
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
