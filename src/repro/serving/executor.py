"""Bounded thread executor with backlog rejection.

The web layer used to spawn one daemon thread per submitted job —
unbounded concurrency and an unbounded queue.  :class:`BoundedExecutor`
caps both: at most ``workers`` jobs run concurrently, at most ``backlog``
sit queued, and a submission beyond the backlog raises
:class:`BacklogFull` (the server turns that into HTTP 503).  Worker
threads start lazily on first submission so constructing an executor is
free for CLI paths that never run background jobs.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

from ..telemetry import get_telemetry

_STOP = None


class BacklogFull(RuntimeError):
    """Raised when a submission exceeds the configured backlog."""


class BoundedExecutor:
    """Fixed worker threads draining a capped FIFO of callables.

    Parameters
    ----------
    workers:
        Maximum concurrently running jobs.
    backlog:
        Maximum jobs waiting beyond the running ones; ``submit`` raises
        :class:`BacklogFull` when exceeded.
    name:
        Thread-name prefix and telemetry label.
    """

    def __init__(self, workers: int = 2, backlog: int = 16, name: str = "jobs"):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backlog < 0:
            raise ValueError("backlog must be >= 0")
        self.workers = int(workers)
        self.backlog = int(backlog)
        self.name = name
        self._q: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._pending = 0  # queued + running, guarded by _lock
        self._shutdown = False

    # -- worker loop -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._q.get()
            if item is _STOP:
                break
            try:
                item()
            except Exception:  # job exceptions are the submitter's concern
                pass
            finally:
                with self._lock:
                    self._pending -= 1

    def _ensure_threads(self) -> None:
        if self._threads:
            return
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker, name=f"{self.name}-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        get_telemetry().metrics.gauge(
            "executor_workers", "Executor worker threads", labelnames=("pool",)
        ).set(self.workers, pool=self.name)

    # -- public API --------------------------------------------------------

    def submit(self, fn: Callable[[], None]) -> None:
        """Queue ``fn`` for execution; raises :class:`BacklogFull` when the
        number of jobs waiting (beyond those running) exceeds the cap."""
        tel = get_telemetry()
        with self._lock:
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            # Admitting this job may not push the *queued* depth (jobs
            # beyond the running ones) past the cap; backlog=0 still
            # admits up to ``workers`` running jobs.
            queued_after = max(0, self._pending + 1 - self.workers)
            if queued_after > self.backlog:
                tel.metrics.counter(
                    "executor_rejected_total",
                    "Submissions rejected by backlog cap",
                    labelnames=("pool",),
                ).inc(pool=self.name)
                raise BacklogFull(
                    f"{self.name}: backlog full "
                    f"({queued_after - 1} queued >= cap {self.backlog})"
                )
            self._pending += 1
            # Under the lock: racing first submissions must start the
            # workers once, or the concurrency cap multiplies.
            self._ensure_threads()
        self._q.put(fn)
        tel.metrics.gauge(
            "executor_pending", "Jobs queued or running", labelnames=("pool",)
        ).set(self.pending(), pool=self.name)

    def pending(self) -> int:
        """Jobs currently queued or running."""
        with self._lock:
            return self._pending

    def queued(self) -> int:
        """Jobs waiting beyond the running ones (best effort)."""
        with self._lock:
            return max(0, self._pending - self.workers)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for workers to drain."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._threads:
            self._q.put(_STOP)
        if wait:
            for t in self._threads:
                t.join(timeout=30.0)

    def __repr__(self) -> str:
        return (
            f"BoundedExecutor(name={self.name!r}, workers={self.workers}, "
            f"backlog={self.backlog}, pending={self.pending()})"
        )
