"""Persistent mapping pool: N worker processes, one physical index copy.

:class:`MapperPool` replaces the pickle-the-index-into-every-worker
pattern (``multiprocessing.Pool(initializer=..., initargs=(index,))``)
with publish-once / attach-everywhere: the index is published through
:mod:`repro.serving.shared` and each worker process receives only a spec
dict, attaches zero-copy, then serves read batches from a task queue
until told to stop.  Startup cost per worker is an O(1) attach instead of
an O(index) pickle round-trip, and resident memory is shared through the
segment/page cache instead of duplicated per process.

The pool is spawn-safe: the worker entry point is a module-level function
and everything shipped to it is picklable, so it behaves identically
under ``fork`` and ``spawn`` start methods (tests run both).
"""

from __future__ import annotations

import queue as _queue
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.counters import CounterScope, OpCounters
from ..index.fm_index import FMIndex
from ..mapper.mapper import Mapper
from ..mapper.results import MappedBatch, MappingResult
from ..telemetry import get_telemetry
from .shared import FlatFileBlock, attach_index, publish_index, release_attachment

_READY_TIMEOUT = 120.0
_LIVENESS_POLL_SECONDS = 0.2


class _Stop:
    """Generation-tagged stop sentinel.

    A bare sentinel (the old ``_STOP = None``) is a restart hazard: if a
    worker dies before consuming its sentinel, the leftover sentinel sits
    in ``task_q`` and immediately kills one of the freshly spawned
    workers, leaving the pool silently under-provisioned.  Tagging the
    sentinel with the worker cohort's generation lets a new cohort skip
    sentinels addressed to a previous one.
    """

    __slots__ = ("generation",)

    def __init__(self, generation: int):
        self.generation = generation


@dataclass
class PoolBatchOutcome:
    """Aggregate of one pooled mapping run."""

    n_reads: int
    mapped: int
    wall_seconds: float
    op_counts: dict[str, int] = field(default_factory=dict)
    results: list[MappingResult] = field(default_factory=list)

    @property
    def mapping_ratio(self) -> float:
        return self.mapped / self.n_reads if self.n_reads else 0.0


def _pool_worker(worker_id: int, generation: int, spec: dict, task_q, result_q) -> None:
    """Worker loop: attach once, then serve tasks until the stop sentinel.

    Tasks: ``(task_id, reads, locate, ship_results)``.  Replies:
    ``("ready", worker_id, attach_seconds, None)`` once at startup, then
    ``("done", task_id, payload, None)`` or
    ``("error", task_id, None, message)`` per task.  A ``map_reads`` task
    (``ship_results``) counts nothing: its payload is ``(n_mapped, None,
    results)``.  A ``run_batch`` task maps inside a ``CounterScope`` and
    replies ``(n_mapped, counter delta, None)``.  Stop sentinels from an
    older generation are dropped, not obeyed.
    """
    # A forked worker inherits the server's SIGTERM-as-interrupt handler,
    # but the pool's last-resort stop (terminate()) must simply end it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    handle = None
    try:
        t0 = time.perf_counter()
        index, handle = attach_index(spec)
        result_q.put(("ready", worker_id, time.perf_counter() - t0, None))
    except BaseException as exc:  # startup failure must not hang the parent
        result_q.put(("ready", worker_id, -1.0, f"{type(exc).__name__}: {exc}"))
        return
    try:
        while True:
            task = task_q.get()
            if isinstance(task, _Stop):
                if task.generation >= generation:
                    break
                continue  # stale sentinel addressed to a dead cohort
            task_id, reads, locate, ship_results = task
            try:
                mapper = Mapper(index, locate=locate)
                if ship_results:
                    # A MappedBatch pickles as its columns: the reply
                    # ships arrays, never per-read objects.
                    results = mapper.map_reads(reads)
                    payload = (results.n_mapped, None, results)
                else:
                    with CounterScope() as scope:
                        results = mapper.map_reads(reads)
                    payload = (results.n_mapped, scope.delta, None)
                result_q.put(("done", task_id, payload, None))
            except Exception as exc:
                result_q.put(("error", task_id, None, f"{type(exc).__name__}: {exc}"))
    finally:
        if handle is not None:
            index = mapper = None  # noqa: F841 - drop index views before closing
            release_attachment(handle)


class MapperPool:
    """Persistent pool of mapping workers attached to one published index.

    Parameters
    ----------
    index:
        The index to publish.  Alternatively pass ``flat_path`` to serve
        an on-disk flat container without materializing it in the parent.
    workers:
        Worker process count.
    mode:
        Publication mode forwarded to
        :func:`~repro.serving.shared.publish_index` (``"auto"``/``"shm"``/
        ``"mmap"``); ignored when ``flat_path`` is given.
    start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/...);
        defaults to fork when available.
    """

    def __init__(
        self,
        index: FMIndex | None = None,
        *,
        flat_path: str | Path | None = None,
        workers: int = 2,
        mode: str = "auto",
        start_method: str | None = None,
    ):
        import multiprocessing as mp

        if workers < 1:
            raise ValueError("workers must be >= 1")
        if (index is None) == (flat_path is None):
            raise ValueError("pass exactly one of index= or flat_path=")
        if flat_path is not None:
            self.block = FlatFileBlock(flat_path, owns_file=False)
        else:
            self.block = publish_index(index, mode=mode)
        self.workers = int(workers)
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        self._ctx = mp.get_context(start_method)
        self.start_method = self._ctx.get_start_method()
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._procs: list = []
        self._next_task = 0
        self._generation = 0
        self._closed = False
        self.attach_seconds: list[float] = []
        try:
            self._spawn_workers()
        except BaseException:
            self._terminate()
            self.block.unlink()
            raise

    # -- lifecycle ---------------------------------------------------------

    def _spawn_workers(self) -> None:
        tel = get_telemetry()
        spec = self.block.spec
        for wid in range(self.workers):
            p = self._ctx.Process(
                target=_pool_worker,
                args=(wid, self._generation, spec, self._task_q, self._result_q),
                daemon=True,
            )
            p.start()
            self._procs.append(p)
        ready = 0
        attach_hist = tel.metrics.histogram(
            "mapper_pool_attach_seconds",
            "Per-worker wall seconds to attach to the published index",
        )
        while ready < self.workers:
            kind, wid, attach_s, err = self._get_reply()
            if kind != "ready":  # pragma: no cover - protocol violation
                raise RuntimeError(f"unexpected startup message {kind!r}")
            if err is not None:
                self._terminate()
                raise RuntimeError(f"pool worker {wid} failed to attach: {err}")
            self.attach_seconds.append(attach_s)
            attach_hist.observe(attach_s)
            ready += 1
        tel.metrics.gauge(
            "mapper_pool_workers", "Live mapper pool worker processes"
        ).set(len(self._procs))

    def restart(self) -> None:
        """Stop the workers and respawn against the same published index.

        The new cohort gets a higher generation, so any stop sentinel
        left in ``task_q`` by a worker that died before consuming it is
        skipped instead of killing a fresh worker.
        """
        self._stop_workers()
        self._generation += 1
        # Recreate both queues: a worker killed mid-``get()`` can die
        # holding the queue's reader lock (poisoning it for the next
        # cohort), and dead workers strand unserved tasks and stop
        # sentinels in the old queue.  Fresh queues shed all of that;
        # the generation tag covers any sentinel still in flight.
        self._task_q.close()
        self._result_q.close()
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._procs = []
        self.attach_seconds = []
        self._spawn_workers()

    def _stop_workers(self) -> None:
        for _ in self._procs:
            self._task_q.put(_Stop(self._generation))
        deadline = time.monotonic() + 30.0
        for p in self._procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        self._terminate()

    def _terminate(self) -> None:
        for p in self._procs:
            if p.is_alive():  # pragma: no cover - stuck worker
                p.terminate()
                p.join(timeout=5.0)

    def close(self) -> None:
        """Stop workers and release/unlink the published index block."""
        if self._closed:
            return
        self._closed = True
        self._stop_workers()
        get_telemetry().metrics.gauge(
            "mapper_pool_workers", "Live mapper pool worker processes"
        ).set(0)
        self._task_q.close()
        self._result_q.close()
        self.block.unlink()

    def __enter__(self) -> "MapperPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving -----------------------------------------------------------

    def _get_reply(self, timeout: float = _READY_TIMEOUT) -> tuple:
        """Read one reply, polling child liveness while waiting.

        A crashed worker never posts an ``"error"`` reply; without the
        liveness poll the caller would block for the full ``timeout`` and
        then surface a bare ``queue.Empty``.  Instead, raise a
        descriptive ``RuntimeError`` within one poll interval of the
        death — the router's per-shard health checks build on this.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                return self._result_q.get(
                    timeout=max(0.01, min(_LIVENESS_POLL_SECONDS, remaining))
                )
            except _queue.Empty:
                dead = [
                    (i, p.exitcode)
                    for i, p in enumerate(self._procs)
                    if not p.is_alive()
                ]
                if dead:
                    # A worker that replied and then exited may still have
                    # its reply in flight through the queue feeder thread;
                    # give it one short grace read before declaring death.
                    try:
                        return self._result_q.get(timeout=0.25)
                    except _queue.Empty:
                        pass
                    detail = ", ".join(
                        f"worker {i} (exitcode {code})" for i, code in dead
                    )
                    raise RuntimeError(
                        f"pool worker(s) died while a reply was outstanding: "
                        f"{detail}; restart() the pool to recover"
                    ) from None
                if remaining <= 0:
                    raise RuntimeError(
                        f"pool reply timed out after {timeout:.0f}s with all "
                        f"{len(self._procs)} workers alive"
                    ) from None

    def _submit(self, shards: list[list[str]], locate: bool, ship: bool) -> dict:
        ids = []
        for shard in shards:
            tid = self._next_task
            self._next_task += 1
            self._task_q.put((tid, shard, locate, ship))
            ids.append(tid)
        replies: dict[int, tuple] = {}
        pending = set(ids)
        while pending:
            kind, tid, payload, err = self._get_reply()
            if tid not in pending:
                continue  # orphan reply for a task abandoned by restart()
            if kind == "error":
                raise RuntimeError(f"pool task {tid} failed: {err}")
            replies[tid] = payload
            pending.discard(tid)
        return {tid: replies[tid] for tid in ids}

    def _shard_scalar(self, reads: list[str]) -> list[list[str]]:
        """Reference round-robin split (kept for the parity test)."""
        return [reads[i :: self.workers] for i in range(self.workers)]

    def _shard(self, reads: list[str]) -> list[list[str]]:
        """Round-robin split, vectorized: one numpy take per shard
        instead of a Python-level strided slice per worker.

        Must stay order-identical to :meth:`_shard_scalar` — the
        ``map_reads`` demux inverts exactly ``reads[i::workers]``.
        """
        arr = np.empty(len(reads), dtype=object)
        arr[:] = reads
        return [arr[i :: self.workers].tolist() for i in range(self.workers)]

    def run_batch(self, reads: Sequence[str], locate: bool = False) -> PoolBatchOutcome:
        """Map ``reads`` across the pool; aggregate outcome only.

        Per-read results stay in the workers (only the mapped count and
        counter deltas come back), keeping IPC out of the measurement —
        the pooled counterpart of ``run_mapping_multiprocess``.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        reads = list(reads)
        tel = get_telemetry()
        t0 = time.perf_counter()
        merged = OpCounters()
        mapped = 0
        if reads:
            replies = self._submit(self._shard(reads), locate, ship=False)
            for shard_mapped, delta, _ in replies.values():
                mapped += shard_mapped
                merged.merge(OpCounters(**delta))
        wall = time.perf_counter() - t0
        tel.metrics.counter(
            "mapper_pool_tasks_total", "Read batches served by mapper pools"
        ).inc()
        tel.metrics.histogram(
            "mapper_pool_batch_seconds", "Wall seconds per pooled batch"
        ).observe(wall)
        return PoolBatchOutcome(
            n_reads=len(reads),
            mapped=mapped,
            wall_seconds=wall,
            op_counts=merged.snapshot(),
        )

    def map_reads(self, reads: Sequence[str], locate: bool = False) -> MappedBatch:
        """Map ``reads`` across the pool and return per-read results.

        Results come back in input order with input-relative ``read_id``s
        (workers number reads within their shard; the pool reorders the
        shards' columns back into one :class:`MappedBatch`).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        reads = list(reads)
        if not reads:
            return MappedBatch.concat([])
        shards = self._shard(reads)
        replies = self._submit(shards, locate, ship=True)
        parts = []
        for shard_idx, (shard, payload) in enumerate(zip(shards, replies.values())):
            results = payload[2]
            if len(results) != len(shard):
                # Never silently truncate: a shorter result list desyncs
                # every downstream read_id-based demux (coalescer, router,
                # web tier).
                raise RuntimeError(
                    f"pool shard {shard_idx} returned {len(results)} results "
                    f"for {len(shard)} reads"
                )
            parts.append(results)
        # Shard i holds reads[i::workers]: concatenated row k is read
        # order[k], so one take of the inverse permutation restores input
        # order.
        order = np.concatenate(
            [np.arange(i, len(reads), self.workers) for i in range(len(shards))]
        )
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        out = MappedBatch.concat(parts).take(inverse)
        get_telemetry().metrics.counter(
            "mapper_pool_tasks_total", "Read batches served by mapper pools"
        ).inc()
        return out

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        """Liveness/backpressure snapshot (feeds per-shard ``/healthz``)."""
        alive = sum(1 for p in self._procs if p.is_alive())
        try:
            depth = self._task_q.qsize()
        except (NotImplementedError, OSError, ValueError):
            depth = None  # macOS (no sem_getvalue) or closed queue
        return {
            "workers": self.workers,
            "workers_alive": alive,
            "queue_depth": depth,
            "generation": self._generation,
            "start_method": self.start_method,
            "closed": self._closed,
        }

    def __repr__(self) -> str:
        return (
            f"MapperPool(workers={self.workers}, start={self.start_method!r}, "
            f"block={self.block!r}, closed={self._closed})"
        )
