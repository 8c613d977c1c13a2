"""Persistent mapping pool: N worker processes, one physical index copy.

:class:`MapperPool` replaces the pickle-the-index-into-every-worker
pattern (``multiprocessing.Pool(initializer=..., initargs=(index,))``)
with publish-once / attach-everywhere: the index is published through
:mod:`repro.serving.shared` and each worker process receives only a spec
dict, attaches zero-copy, then serves read batches from a task queue
until told to stop.  Startup cost per worker is an O(1) attach instead of
an O(index) pickle round-trip, and resident memory is shared through the
segment/page cache instead of duplicated per process.

A *catalog* pool (``catalog=True``) publishes nothing up front: each
task names the flat containers it maps, which a worker attaches
zero-copy on first use and keeps on its :class:`IndexShelf` — one
:class:`~repro.mapper.mapper.StackedMapper` over every container it
holds, so a task's containers map as one job whatever subset it names.
One pool serves every resident shard of a
:class:`~repro.serving.router.ShardCatalog` (DESIGN.md §13);
:meth:`MapperPool.release` makes every worker drop containers the
catalog evicted, and :meth:`MapperPool.attach` opens containers ahead of
the first task.

Each worker has its own task queue: batch part ``i`` goes to worker
``i``, and an attach or release reaches every worker.  The pool is spawn-safe: the
worker entry point is a module-level function and everything shipped to
it is picklable, so it behaves identically under ``fork`` and ``spawn``
start methods (tests run both).
"""

from __future__ import annotations

import gc
import queue as _queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.counters import CounterScope, OpCounters
from ..index.flat import load_index_flat
from ..index.fm_index import FMIndex
from ..mapper.mapper import StackedMapper
from ..mapper.results import MappedBatch, MappingResult
from ..telemetry import get_telemetry
from .shared import SharedIndexBlock, attach_index, publish_index, release_attachment

_READY_TIMEOUT = 120.0
_LIVENESS_POLL_SECONDS = 0.2
#: Shelf key of the index an ``index=`` pool publishes.
_PUBLISHED = ""


class _Stop:
    """Generation-tagged stop sentinel.

    A bare sentinel is a restart hazard: if a worker dies before
    consuming its sentinel, a leftover sentinel in a reused queue would
    kill a freshly spawned worker, leaving the pool silently
    under-provisioned.  Tagging the sentinel with the worker cohort's
    generation lets a new cohort skip sentinels addressed to a previous
    one.
    """

    __slots__ = ("generation",)

    def __init__(self, generation: int):
        self.generation = generation


class _Shelve:
    """Attach (``attach``) or drop the named containers, in every worker."""

    __slots__ = ("task_id", "paths", "attach")

    def __init__(self, task_id: int, paths: tuple[str, ...], attach: bool):
        self.task_id = task_id
        self.paths = paths
        self.attach = attach


class IndexShelf:
    """Indexes by key, and one :class:`StackedMapper` over all of them.

    The one cache of catalog mapping — in every pool worker, and in the
    server's in-process rung.  A key's index is opened on first use and
    held until :meth:`release`; the stack spans every held index and is
    rebuilt only when that set changes (an activation or an eviction),
    so each subset of keys maps through it and nothing is kept per
    subset.  Memory is the held indexes (zero-copy container views) plus
    one stack's decoded rank scratch.  Thread-safe: calls may map
    concurrently.
    """

    def __init__(self, open_index: Callable[[str], FMIndex]):
        self._open = open_index
        self._lock = threading.Lock()
        self.indexes: dict[str, FMIndex] = {}
        self._stack: StackedMapper | None = None
        #: Stacks built so far (one per change of the held set).
        self.builds = 0

    def add(self, key: str, index: FMIndex) -> None:
        with self._lock:
            self.indexes[key] = index
            self._stack = None

    def open(self, keys: Sequence[str]) -> None:
        """Hold ``keys``, opening those not held yet."""
        with self._lock:
            self._hold(keys)

    def _hold(self, keys: Sequence[str]) -> None:
        for key in keys:
            if key not in self.indexes:
                self.indexes[key] = self._open(key)
                self._stack = None

    def map_reads(
        self, keys: Sequence[str], reads: Sequence[str], locate: bool = True
    ) -> list[MappedBatch]:
        """One batch per key, in the order given (keys not held are
        opened first)."""
        with self._lock:
            self._hold(keys)
            if self._stack is None:
                self._stack = StackedMapper(list(self.indexes.values()))
                self.builds += 1
            stack = self._stack
            member = {key: i for i, key in enumerate(self.indexes)}
        return stack.map_reads(reads, [member[key] for key in keys], locate)

    def release(self, keys: Sequence[str]) -> None:
        """Drop ``keys``; their container views unmap once no call in
        flight still maps them."""
        with self._lock:
            gone = [self.indexes.pop(key) for key in keys if key in self.indexes]
            if not gone:
                return
            self._stack = None
        del gone
        gc.collect()  # unmap now: the container's views die with its index


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


def _pool_worker(worker_id: int, generation: int, spec, task_q, result_q) -> None:
    """Worker loop: attach once, then serve tasks until the stop sentinel.

    Tasks: ``(task_id, reads, locate, count, keys)``, mapped on the
    worker's :class:`IndexShelf` — ``keys`` are flat container paths, or
    the published index of an ``index=`` pool (attached at startup from
    ``spec``).  Replies: ``("ready", worker_id, attach_seconds, None)``
    once at startup, then ``("done", task_id, payload, None)`` or
    ``("error", task_id, None, message)`` per task.  The payload is
    ``(n_mapped, None, batches)``, one batch per key; with ``count`` the
    mapping runs inside a ``CounterScope`` and the payload is
    ``(n_mapped, counter delta, None)``.  A :class:`_Shelve` is
    acknowledged with ``("done", task_id, seconds, None)``.  Stop
    sentinels from an older generation are dropped, not obeyed.
    """
    # A forked worker inherits the server's SIGTERM-as-interrupt handler,
    # but the pool's last-resort stop (terminate()) must simply end it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    handle = None
    shelf = IndexShelf(load_index_flat)
    try:
        t0 = time.perf_counter()
        if spec is not None:
            index, handle = attach_index(spec)
            shelf.add(_PUBLISHED, index)
            del index
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
            if isinstance(task, _Shelve):
                t0 = time.perf_counter()
                try:
                    if task.attach:
                        shelf.open(task.paths)
                    else:
                        shelf.release(task.paths)
                except Exception as exc:
                    result_q.put(("error", task.task_id, None, f"{type(exc).__name__}: {exc}"))
                else:
                    result_q.put(("done", task.task_id, time.perf_counter() - t0, None))
                continue
            task_id, reads, locate, count, keys = task
            try:
                # A MappedBatch pickles as its columns: the reply ships
                # arrays, never per-read objects.
                if count:
                    with CounterScope() as scope:
                        batches = shelf.map_reads(keys, reads, locate)
                    payload = (sum(b.n_mapped for b in batches), scope.delta, None)
                else:
                    batches = shelf.map_reads(keys, reads, locate)
                    payload = (sum(b.n_mapped for b in batches), None, batches)
                result_q.put(("done", task_id, payload, None))
            except Exception as exc:
                result_q.put(("error", task_id, None, f"{type(exc).__name__}: {exc}"))
    finally:
        if handle is not None:
            shelf = None  # noqa: F841 - drop index views before closing
            release_attachment(handle)


class MapperPool:
    """Persistent pool of mapping workers attached to one published index,
    or (``catalog=True``) to the flat containers its tasks name.

    Parameters
    ----------
    index:
        The index to publish.  Alternatively pass ``catalog=True`` to
        publish nothing and map the on-disk containers that
        :meth:`map_reads` / :meth:`run_batch` name in ``containers=``
        (each worker mmaps them in place).
    workers:
        Worker process count.
    mode:
        Publication mode forwarded to
        :func:`~repro.serving.shared.publish_index` (``"auto"``/``"shm"``/
        ``"mmap"``); unused by a catalog pool.
    start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/...);
        defaults to fork when available.
    """

    def __init__(
        self,
        index: FMIndex | None = None,
        *,
        catalog: bool = False,
        workers: int = 2,
        mode: str = "auto",
        start_method: str | None = None,
    ):
        import multiprocessing as mp

        if workers < 1:
            raise ValueError("workers must be >= 1")
        if (index is not None) == bool(catalog):
            raise ValueError("pass exactly one of index= or catalog=True")
        self.block: SharedIndexBlock | None = None
        if index is not None:
            self.block = publish_index(index, mode=mode)
        self.workers = int(workers)
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        self._ctx = mp.get_context(start_method)
        self.start_method = self._ctx.get_start_method()
        self._task_qs: list = []
        self._result_q = self._ctx.Queue()
        self._procs: list = []
        #: One call at a time: replies share one queue, so a second
        #: caller collecting concurrently would discard the first's.
        self._call_lock = threading.Lock()
        self._next_task = 0
        self._generation = 0
        self._closed = False
        self.attach_seconds: list[float] = []
        try:
            self._spawn_workers()
        except BaseException:
            self._terminate()
            if self.block is not None:
                self.block.unlink()
            raise

    # -- lifecycle ---------------------------------------------------------

    def _spawn_workers(self) -> None:
        tel = get_telemetry()
        spec = self.block.spec if self.block is not None else None
        self._task_qs = [self._ctx.Queue() for _ in range(self.workers)]
        for wid, task_q in enumerate(self._task_qs):
            p = self._ctx.Process(
                target=_pool_worker,
                args=(wid, self._generation, spec, task_q, self._result_q),
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
        # Recreate every queue: a worker killed mid-``get()`` can die
        # holding the queue's reader lock (poisoning it for the next
        # cohort), and dead workers strand unserved tasks and stop
        # sentinels in the old queues.  Fresh queues shed all of that;
        # the generation tag covers any sentinel still in flight.
        for task_q in self._task_qs:
            task_q.close()
        self._result_q.close()
        self._result_q = self._ctx.Queue()
        self._procs = []
        self.attach_seconds = []
        self._spawn_workers()

    def _stop_workers(self) -> None:
        for task_q in self._task_qs:
            task_q.put(_Stop(self._generation))
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
        for task_q in self._task_qs:
            task_q.close()
        self._result_q.close()
        if self.block is not None:
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

    def _keys(self, containers: Sequence[str] | None) -> tuple[tuple[str, ...], ...]:
        """The ``keys`` argument of a task's :meth:`_submit`: none (the
        published index), or (catalog pool) the containers named."""
        if (containers is None) != (self.block is not None):
            raise ValueError(
                "a catalog pool maps the containers= it is given; "
                "an index= pool maps its own index"
            )
        return () if containers is None else (tuple(map(str, containers)),)

    def _submit(
        self,
        shards: list[list[str]],
        locate: bool,
        count: bool,
        keys: tuple[str, ...] = (_PUBLISHED,),
    ) -> dict:
        """Send part ``i`` to worker ``i``; replies by task id, in order.
        ``keys`` name what each part maps (default: the published index)."""
        with self._call_lock:
            ids = self._task_ids(len(shards))
            for i, (tid, shard) in enumerate(zip(ids, shards)):
                self._task_qs[i % self.workers].put((tid, shard, locate, count, keys))
            return self._collect(ids)

    def _task_ids(self, n: int) -> list[int]:
        first = self._next_task
        self._next_task += n
        return list(range(first, first + n))

    def _collect(self, ids: list[int]) -> dict:
        replies: dict[int, tuple] = {}
        pending = set(ids)
        while pending:
            kind, tid, payload, err = self._get_reply()
            if tid not in pending:
                continue  # orphan reply of an abandoned or failed call
            if kind == "error":
                raise RuntimeError(f"pool task {tid} failed: {err}")
            replies[tid] = payload
            pending.discard(tid)
        return {tid: replies[tid] for tid in ids}

    def _shelve(self, paths: Sequence[str], attach: bool) -> list[float]:
        """Send one :class:`_Shelve` to every worker; per-worker seconds
        once all have acknowledged."""
        with self._call_lock:
            ids = self._task_ids(self.workers)
            for task_q, tid in zip(self._task_qs, ids):
                task_q.put(_Shelve(tid, tuple(map(str, paths)), attach))
            return list(self._collect(ids).values())

    def attach(self, paths: Sequence[str]) -> list[float]:
        """Make every worker of a catalog pool open the containers
        ``paths`` now rather than on first use; returns each worker's
        attach seconds."""
        if self._closed:
            raise RuntimeError("pool is closed")
        self._keys(paths)
        return self._shelve(paths, attach=True)

    def release(self, paths: Sequence[str]) -> None:
        """Make every worker drop the containers ``paths`` — a catalog
        eviction; returns once all have acknowledged."""
        if self._closed or not paths:
            return
        self._shelve(paths, attach=False)

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

    def run_batch(
        self,
        reads: Sequence[str],
        locate: bool = False,
        containers: Sequence[str] | None = None,
    ) -> PoolBatchOutcome:
        """Map ``reads`` across the pool; aggregate outcome only.

        Per-read results stay in the workers (only the mapped count and
        counter deltas come back), keeping IPC out of the measurement —
        the pooled counterpart of
        :func:`~repro.mapper.batch.run_mapping_batch`.  A catalog pool
        maps against the ``containers`` named, summing over them.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        keys = self._keys(containers)
        reads = list(reads)
        tel = get_telemetry()
        t0 = time.perf_counter()
        merged = OpCounters()
        mapped = 0
        if reads:
            replies = self._submit(self._shard(reads), locate, True, *keys)
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

    def map_reads(
        self,
        reads: Sequence[str],
        locate: bool = False,
        containers: Sequence[str] | None = None,
    ) -> MappedBatch | list[MappedBatch]:
        """Map ``reads`` across the pool and return per-read results.

        Results come back in input order with input-relative ``read_id``s
        (workers number reads within their part; the pool reorders the
        parts' columns back into one :class:`MappedBatch`).  A catalog
        pool maps against the flat ``containers`` named (one stacked job
        per part) and returns one batch per container, in the order
        named.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        keys = self._keys(containers)
        reads = list(reads)
        n_out = len(keys[0]) if keys else 1
        if not reads:
            empty = [MappedBatch.concat([]) for _ in range(n_out)]
            return empty[0] if containers is None else empty
        shards = self._shard(reads)
        replies = self._submit(shards, locate, False, *keys)
        parts = [payload[2] for payload in replies.values()]
        for shard_idx, (shard, results) in enumerate(zip(shards, parts)):
            if len(results) != n_out or any(len(r) != len(shard) for r in results):
                # Never silently truncate: a shorter result list desyncs
                # every downstream read_id-based demux (coalescer, router,
                # web tier).
                raise RuntimeError(
                    f"pool shard {shard_idx} returned "
                    f"{[len(r) for r in results]} results for {len(shard)} reads"
                )
        if len(parts) == 1:
            out = parts[0]
        else:
            # Part i holds reads[i::workers]: concatenated row k is read
            # order[k], so one take of the inverse permutation restores
            # input order.
            order = np.concatenate(
                [np.arange(i, len(reads), self.workers) for i in range(len(shards))]
            )
            inverse = np.empty_like(order)
            inverse[order] = np.arange(order.size)
            out = [
                MappedBatch.concat([part[j] for part in parts]).take(inverse)
                for j in range(n_out)
            ]
        get_telemetry().metrics.counter(
            "mapper_pool_tasks_total", "Read batches served by mapper pools"
        ).inc()
        return out[0] if containers is None else out

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        """Liveness/backpressure snapshot (feeds per-shard ``/healthz``)."""
        alive = sum(1 for p in self._procs if p.is_alive())
        try:
            depth = sum(task_q.qsize() for task_q in self._task_qs)
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
