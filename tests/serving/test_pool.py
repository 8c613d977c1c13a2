"""MapperPool: shared-memory worker pool correctness and lifecycle."""

import glob
import sys
import threading
import time

import pytest

from repro.index.builder import build_index
from repro.index.flat import save_index_flat
from repro.mapper.batch import run_mapping_batch
from repro.mapper.mapper import Mapper
from repro.serving.pool import MapperPool


def _shm_names():
    return set(glob.glob("/dev/shm/psm_*"))


def _mapped(report):
    return sum(1 for r in report.results if r.mapped)


@pytest.fixture(scope="module")
def pool_index(small_text):
    idx, _ = build_index(small_text, sf=8)
    return idx


@pytest.fixture(scope="module")
def reads(small_text):
    return [small_text[i : i + 36] for i in range(0, 1400, 37)] + ["ACGT" * 9] * 3


class TestCorrectness:
    def test_run_batch_matches_single_process(self, pool_index, reads):
        solo = run_mapping_batch(pool_index, reads)
        with MapperPool(pool_index, workers=2) as pool:
            outcome = pool.run_batch(reads)
        assert outcome.n_reads == solo.n_reads
        assert outcome.mapped == _mapped(solo)
        assert outcome.op_counts == solo.op_counts

    def test_map_reads_preserves_order_and_results(self, pool_index, reads):
        solo = Mapper(pool_index, locate=True).map_reads(reads)
        with MapperPool(pool_index, workers=2) as pool:
            pooled = pool.map_reads(reads, locate=True)
        assert len(pooled) == len(solo)
        for a, b in zip(pooled, solo):
            assert a.read_id == b.read_id
            assert a.length == b.length
            assert a.forward.count == b.forward.count
            assert a.reverse.count == b.reverse.count
            for ha, hb in ((a.forward, b.forward), (a.reverse, b.reverse)):
                pa = None if ha.positions is None else sorted(ha.positions.tolist())
                pb = None if hb.positions is None else sorted(hb.positions.tolist())
                assert pa == pb

    def test_flat_path_mode(self, pool_index, reads, tmp_path):
        """A catalog pool's workers mmap the flat file its tasks name
        instead of attaching to shm."""
        flat = tmp_path / "index.bwvr"
        save_index_flat(pool_index, flat)
        solo = run_mapping_batch(pool_index, reads)
        with MapperPool(catalog=True, workers=2) as pool:
            assert len(pool.attach([flat])) == 2
            outcome = pool.run_batch(reads, containers=[flat])
            with pytest.raises(ValueError, match="containers"):
                pool.run_batch(reads)
        assert outcome.mapped == _mapped(solo)
        assert outcome.op_counts == solo.op_counts

    def test_empty_batch(self, pool_index):
        with MapperPool(pool_index, workers=2) as pool:
            outcome = pool.run_batch([])
        assert outcome.n_reads == 0
        assert outcome.mapped == 0

    def test_multiple_batches_reuse_workers(self, pool_index, reads):
        with MapperPool(pool_index, workers=2) as pool:
            first = pool.run_batch(reads)
            second = pool.run_batch(reads)
        assert first.mapped == second.mapped
        assert first.op_counts == second.op_counts


def _fingerprint(results):
    return [
        (
            r.read_id,
            r.forward.count,
            r.reverse.count,
            None if r.forward.positions is None else sorted(r.forward.positions.tolist()),
            None if r.reverse.positions is None else sorted(r.reverse.positions.tolist()),
        )
        for r in results
    ]


class TestConcurrentCallers:
    def test_concurrent_map_reads_each_get_their_own_replies(self, pool_index, reads):
        """Callers share one reply queue; a call must never collect (and
        drop) another call's replies.  4 threads x 20 calls on one
        2-worker pool, every answer equal to the in-process mapper."""
        mapper = Mapper(pool_index, locate=True)
        batches = [reads[k : k + 7 + k % 5] for k in range(4)]
        want = [_fingerprint(mapper.map_reads(b)) for b in batches]
        errors: list[BaseException] = []
        with MapperPool(pool_index, workers=2) as pool:

            def caller(k):
                try:
                    for _ in range(20):
                        got = pool.map_reads(batches[k], locate=True)
                        assert _fingerprint(got) == want[k]
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the callers finely
            try:
                t0 = time.monotonic()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                elapsed = time.monotonic() - t0
            finally:
                sys.setswitchinterval(switch)
            assert not any(t.is_alive() for t in threads), "callers hung"
        assert errors == []
        assert elapsed < 30.0


class TestSpawnMethod:
    def test_spawn_workers_match_fork(self, pool_index, reads):
        """Spawned children re-import and attach; results are identical."""
        solo = run_mapping_batch(pool_index, reads)
        with MapperPool(pool_index, workers=2, start_method="spawn") as pool:
            outcome = pool.run_batch(reads)
        assert outcome.mapped == _mapped(solo)
        assert outcome.op_counts == solo.op_counts


class TestLifecycle:
    def test_no_leaked_segments_after_close(self, pool_index, reads):
        before = _shm_names()
        pool = MapperPool(pool_index, workers=2)
        pool.run_batch(reads)
        pool.close()
        assert _shm_names() == before

    def test_no_leaked_segments_after_context_exit(self, pool_index, reads):
        before = _shm_names()
        with MapperPool(pool_index, workers=2) as pool:
            pool.run_batch(reads)
        assert _shm_names() == before

    def test_restart_recovers_workers(self, pool_index, reads):
        with MapperPool(pool_index, workers=2) as pool:
            first = pool.run_batch(reads)
            pool.restart()
            second = pool.run_batch(reads)
        assert first.mapped == second.mapped

    def test_workers_are_daemons(self, pool_index):
        with MapperPool(pool_index, workers=2) as pool:
            assert all(p.daemon for p in pool._procs)
            assert all(p.is_alive() for p in pool._procs)

    def test_attach_seconds_recorded(self, pool_index):
        with MapperPool(pool_index, workers=2) as pool:
            assert len(pool.attach_seconds) == 2
            assert all(t >= 0 for t in pool.attach_seconds)

    def test_close_is_idempotent(self, pool_index):
        pool = MapperPool(pool_index, workers=1)
        pool.close()
        pool.close()

    def test_requires_exactly_one_source(self, pool_index, tmp_path):
        with pytest.raises(ValueError):
            MapperPool()
        with pytest.raises(ValueError):
            MapperPool(pool_index, catalog=True)

    def test_rejects_zero_workers_before_publishing(self, pool_index):
        before = _shm_names()
        with pytest.raises(ValueError, match="workers"):
            MapperPool(pool_index, workers=0)
        assert _shm_names() == before

    def test_mmap_mode_cleans_temp_file(self, pool_index, reads):
        pool = MapperPool(pool_index, workers=1, mode="mmap")
        path = pool.block.spec["path"]
        pool.run_batch(reads)
        pool.close()
        assert not glob.glob(path)

    def test_health_snapshot(self, pool_index):
        with MapperPool(pool_index, workers=2) as pool:
            doc = pool.health()
            assert doc["workers"] == 2
            assert doc["workers_alive"] == 2
            assert doc["generation"] == 0
            assert doc["closed"] is False
        assert pool.health()["closed"] is True


def _kill_worker(pool, idx=0):
    """SIGKILL one worker and wait for the process table to notice."""
    import os
    import signal
    import time

    victim = pool._procs[idx]
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while victim.is_alive() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not victim.is_alive()


class TestFailureRecovery:
    """Regression tests for the pool-lifecycle bug sweep."""

    def test_restart_after_worker_kill_restores_full_pool(self, pool_index, reads):
        """A stale stop sentinel from a dead worker must not kill a
        freshly spawned worker (generation-tagged sentinels)."""
        import time

        with MapperPool(pool_index, workers=2) as pool:
            _kill_worker(pool)
            pool.restart()
            assert len(pool._procs) == 2
            outcome = pool.run_batch(reads)
            assert outcome.n_reads == len(reads)
            # Give a sentinel victim (the old bug) time to exit, then
            # check the cohort is still fully provisioned.
            time.sleep(0.5)
            assert pool.health()["workers_alive"] == 2
            again = pool.run_batch(reads)
            assert again.mapped == outcome.mapped

    def test_dead_worker_fails_fast_with_context(self, pool_index, reads):
        """A crashed worker surfaces a descriptive RuntimeError within a
        liveness-poll interval, not a bare queue.Empty after 120 s."""
        import time

        with MapperPool(pool_index, workers=1) as pool:
            _kill_worker(pool)
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="died"):
                pool.map_reads(reads[:4])
            assert time.monotonic() - t0 < 10.0
            pool.restart()
            assert pool.run_batch(reads).n_reads == len(reads)

    def test_truncated_shard_results_raise(self, pool_index, reads, monkeypatch):
        """A shard shipping fewer results than reads raises instead of
        silently returning a shorter list."""
        with MapperPool(pool_index, workers=2) as pool:
            real = pool._submit

            def lossy(shards, locate, ship):
                replies = real(shards, locate, ship)
                tid = next(iter(replies))
                mapped, delta, results = replies[tid]
                replies[tid] = (mapped, delta, results[:-1])
                return replies

            monkeypatch.setattr(pool, "_submit", lossy)
            with pytest.raises(RuntimeError, match="results for"):
                pool.map_reads(reads, locate=True)


class TestSpawnFailureRecovery:
    def test_restart_after_worker_kill_spawn(self, pool_index, reads):
        with MapperPool(pool_index, workers=2, start_method="spawn") as pool:
            _kill_worker(pool)
            pool.restart()
            outcome = pool.run_batch(reads)
            assert outcome.n_reads == len(reads)
            assert pool.health()["workers_alive"] == 2
