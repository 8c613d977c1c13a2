"""BoundedExecutor: backlog cap, rejection, and drain behaviour."""

import sys
import threading
import time

import pytest

from repro.serving.executor import BacklogFull, BoundedExecutor


@pytest.fixture()
def executor():
    ex = BoundedExecutor(workers=1, backlog=2, name="test")
    yield ex
    ex.shutdown(wait=False)


class TestSubmit:
    def test_runs_submitted_work(self, executor):
        done = threading.Event()
        executor.submit(done.set)
        assert done.wait(5.0)

    def test_many_sequential_jobs_complete(self, executor):
        hits = []
        lock = threading.Lock()

        def job(i):
            with lock:
                hits.append(i)

        for i in range(20):
            while True:
                try:
                    executor.submit(lambda i=i: job(i))
                    break
                except BacklogFull:
                    time.sleep(0.01)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and len(hits) < 20:
            time.sleep(0.01)
        assert sorted(hits) == list(range(20))

    def test_rejects_beyond_backlog(self, executor):
        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            release.wait(10.0)

        executor.submit(block)
        assert started.wait(5.0)
        # Worker busy; backlog=2 admits two queued jobs, then rejects.
        executor.submit(lambda: None)
        executor.submit(lambda: None)
        with pytest.raises(BacklogFull):
            executor.submit(lambda: None)
        release.set()

    def test_drains_after_rejection(self, executor):
        release = threading.Event()
        executor.submit(lambda: release.wait(10.0))
        executor.submit(lambda: None)
        executor.submit(lambda: None)
        with pytest.raises(BacklogFull):
            executor.submit(lambda: None)
        release.set()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and executor.pending() > 0:
            time.sleep(0.01)
        assert executor.pending() == 0
        done = threading.Event()
        executor.submit(done.set)
        assert done.wait(5.0)

    def test_counts(self, executor):
        release = threading.Event()
        executor.submit(lambda: release.wait(10.0))
        time.sleep(0.05)
        executor.submit(lambda: None)
        assert executor.pending() == 2
        assert executor.queued() == 1
        release.set()

    def test_exceptions_do_not_kill_worker(self, executor):
        def boom():
            raise RuntimeError("job failed")

        executor.submit(boom)
        done = threading.Event()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                executor.submit(done.set)
                break
            except BacklogFull:
                time.sleep(0.01)
        assert done.wait(5.0)


class TestShutdown:
    def test_shutdown_waits_for_pending(self):
        ex = BoundedExecutor(workers=1, backlog=4, name="drain")
        hits = []
        ex.submit(lambda: hits.append(1))
        ex.submit(lambda: hits.append(2))
        ex.shutdown(wait=True)
        assert sorted(hits) == [1, 2]

    def test_submit_after_shutdown_raises(self):
        ex = BoundedExecutor(workers=1, backlog=4, name="dead")
        ex.shutdown(wait=True)
        with pytest.raises(RuntimeError):
            ex.submit(lambda: None)


class TestLazyStart:
    def test_concurrent_first_submissions_start_workers_once(self):
        """Racing first ``submit`` calls start exactly ``workers`` threads."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(100):
                name = f"race{trial}"
                ex = BoundedExecutor(workers=2, backlog=16, name=name)
                gate = threading.Barrier(8)

                def first_submit(ex=ex, gate=gate):
                    gate.wait(5.0)
                    ex.submit(lambda: None)

                callers = [threading.Thread(target=first_submit) for _ in range(8)]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(5.0)
                    assert not t.is_alive()
                workers = [
                    t for t in threading.enumerate()
                    if t.name.startswith(f"{name}-worker-")
                ]
                ex.shutdown(wait=True)
                assert len(workers) == 2, f"trial {trial}: {len(workers)} workers"
        finally:
            sys.setswitchinterval(interval)
