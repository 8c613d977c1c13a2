"""RequestCoalescer: merge/demux parity, fairness, deadlines, fallback."""

import threading
import time

import pytest

from repro.index.builder import build_index
from repro.index.fm_index import SearchResult
from repro.mapper.mapper import Mapper
from repro.mapper.results import MappingResult, StrandHit
from repro.serving.coalescer import (
    CoalescerClosed,
    CoalescerConfig,
    CoalescerError,
    MappingService,
    RequestCoalescer,
    RequestTooLarge,
)
from repro.serving.executor import Overloaded


@pytest.fixture(scope="module")
def co_index(small_text):
    idx, _ = build_index(small_text, sf=8)
    return idx


@pytest.fixture(scope="module")
def co_mapper(co_index):
    return Mapper(co_index, locate=True)


@pytest.fixture(scope="module")
def requests(small_text):
    reqs = [
        [small_text[i + j * 31 : i + j * 31 + 24] for j in range(4)]
        for i in range(0, 280, 9)
    ]
    # The awkward riders: N-bases, empty pattern, unmappable read.
    reqs[1][2] = "ACGTNNACGT"
    reqs[3][0] = ""
    reqs[5][1] = "ACGT" * 6
    return reqs


def fingerprint(r: MappingResult) -> tuple:
    def hit(h: StrandHit):
        pos = (
            tuple(sorted(int(p) for p in h.positions))
            if h.positions is not None
            else None
        )
        return (h.interval.start, h.interval.end, h.interval.steps, pos)

    return (r.read_id, r.read_name, r.length, hit(r.forward), hit(r.reverse), r.reason)


def assert_parity(merged, independent):
    assert len(merged) == len(independent)
    for m, i in zip(merged, independent):
        assert [fingerprint(r) for r in m] == [fingerprint(r) for r in i]


class TestMergeParity:
    """Coalesced results must be bit-identical to independent execution."""

    def test_map_many_cpu_backend(self, co_mapper, requests):
        independent = [co_mapper.map_reads(reads) for reads in requests]
        for max_batch in (1, 3, 16, 512):
            co = RequestCoalescer(
                co_mapper.map_reads,
                config=CoalescerConfig(max_batch_reads=max_batch),
            )
            assert_parity(co.map_many(requests), independent)

    def test_threaded_windowed_path(self, co_mapper, requests):
        independent = [co_mapper.map_reads(reads) for reads in requests]
        with RequestCoalescer(
            co_mapper.map_reads,
            config=CoalescerConfig(window_seconds=0.005, max_batch_reads=64),
        ) as co:
            outs = [None] * len(requests)

            def client(i):
                outs[i] = co.map_reads(requests[i])

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(requests))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = co.stats()
        assert_parity(outs, independent)
        assert stats["requests_total"] == len(requests)
        assert stats["batches_total"] >= 1

    def test_fpga_backend_parity(self, co_index, requests):
        """Coalescing is dispatch-agnostic: merging batches through the
        simulated accelerator demuxes to the same per-request outcomes
        as accelerating each request alone."""
        from repro.fpga.accelerator import FPGAAccelerator

        acc = FPGAAccelerator.for_index(co_index)

        def fpga_dispatch(reads):
            run = acc.map_batch(list(reads))
            outcomes = sorted(run.kernel_run.outcomes, key=lambda o: o.query_id)
            return [
                MappingResult(
                    read_id=o.query_id,
                    read_name=f"read{o.query_id}",
                    length=len(reads[o.query_id]),
                    forward=StrandHit(
                        SearchResult(o.fwd_start, o.fwd_end, o.fwd_steps)
                    ),
                    reverse=StrandHit(
                        SearchResult(o.rc_start, o.rc_end, o.rc_steps)
                    ),
                )
                for o in outcomes
            ]

        valid = [[r for r in reads if r] for reads in requests]
        independent = [fpga_dispatch(reads) for reads in valid]
        co = RequestCoalescer(
            fpga_dispatch, config=CoalescerConfig(max_batch_reads=32)
        )
        assert_parity(co.map_many(valid), independent)

    def test_pool_backend_parity(self, co_index, requests):
        from repro.serving.pool import MapperPool

        independent = [
            Mapper(co_index, locate=True).map_reads(reads) for reads in requests
        ]
        with MapperPool(co_index, workers=2) as pool:
            co = RequestCoalescer(
                lambda reads: pool.map_reads(reads, locate=True),
                config=CoalescerConfig(max_batch_reads=48),
            )
            merged = co.map_many(requests)
        # The pool sorts positions differently only in fixture terms; the
        # shared fingerprint sorts them, so equality here is exact.
        assert_parity(merged, independent)

    def test_empty_request_completes_without_batch(self, co_mapper):
        co = RequestCoalescer(co_mapper.map_reads)
        req = co.submit([])
        assert req.done() and req.result(0) == []
        assert co.stats()["batches_total"] == 0


class TestFairness:
    def test_starving_tenant_rides_next_batch(self, co_mapper, small_text):
        """A tenant with one queued request must not wait behind a
        tenant with many: round-robin takes one request per tenant per
        cycle, so the small tenant lands in the very first batch."""
        read = small_text[10:34]
        dispatched: list[list[str]] = []

        def spy_dispatch(reads):
            dispatched.append(list(reads))
            return co_mapper.map_reads(reads)

        co = RequestCoalescer(
            spy_dispatch,
            # One request per batch-fill cycle: big tenant alone would
            # fill the first batch many times over.
            config=CoalescerConfig(window_seconds=0.5, max_batch_reads=8),
        )
        with co._cv:  # hold the lock so the flusher cannot start early
            big = [co.submit([read] * 4, tenant="bulk") for _ in range(10)]
            small = co.submit([read + "A"], tenant="interactive")
        co.flush()
        small.result(timeout=30.0)
        for req in big:
            req.result(timeout=30.0)
        co.close()
        # The interactive read appears in the first dispatched batch even
        # though 10 bulk requests (40 reads) were queued ahead of it.
        assert read + "A" in dispatched[0]

    def test_round_robin_interleaves_tenants(self, co_mapper, small_text):
        read = small_text[0:24]
        taken: list[str] = []

        def spy(reads):
            taken.append(len(reads) * "x")
            return co_mapper.map_reads(reads)

        co = RequestCoalescer(
            spy, config=CoalescerConfig(window_seconds=0.5, max_batch_reads=6)
        )
        with co._cv:
            for tenant in ("a", "a", "a", "b", "c"):
                co.submit([read, read], tenant=tenant)
        co.flush()
        co.close()
        # First batch (6 reads = 3 requests) must cover all three tenants.
        stats = co.stats()
        assert stats["batches_total"] >= 2
        assert stats["pending_reads"] == 0


class TestDeadlines:
    def test_flush_on_deadline_bounds_wait(self, co_mapper, small_text):
        """A lone request dispatches within the window (plus scheduling
        slack), never waiting for a full batch that will not come."""
        window = 0.01
        co = RequestCoalescer(
            co_mapper.map_reads,
            config=CoalescerConfig(window_seconds=window, max_batch_reads=4096),
        )
        t0 = time.monotonic()
        req = co.submit([small_text[5:29]])
        req.result(timeout=30.0)
        elapsed = time.monotonic() - t0
        co.close()
        assert req.wait_seconds >= 0.0
        # Generous upper bound: window + scheduler/dispatch slack.
        assert elapsed < window + 1.0
        assert req.added_wait_seconds <= elapsed

    def test_flush_on_size_preempts_window(self, co_mapper, small_text):
        """A full batch dispatches immediately; the window is an upper
        bound, not a mandatory sleep."""
        co = RequestCoalescer(
            co_mapper.map_reads,
            config=CoalescerConfig(window_seconds=5.0, max_batch_reads=8),
        )
        t0 = time.monotonic()
        reqs = [co.submit([small_text[i : i + 24]] * 4) for i in range(4)]
        for r in reqs:
            r.result(timeout=30.0)
        elapsed = time.monotonic() - t0
        co.close()
        assert elapsed < 5.0  # did not wait out the window
        assert all(r.batch_reads >= 8 for r in reqs[:2])


class TestFallback:
    def test_failed_merge_recovers_per_request(self, co_mapper, requests):
        independent = [co_mapper.map_reads(reads) for reads in requests[:4]]
        calls = {"n": 0}

        def flaky(reads):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("device lost")
            return co_mapper.map_reads(reads)

        co = RequestCoalescer(flaky, fallback=co_mapper.map_reads)
        merged = co.map_many(requests[:4])
        assert_parity(merged, independent)
        assert co.stats()["fallbacks"] == 4

    def test_degraded_flag_and_reason(self, co_mapper, requests):
        def always_bad(reads):
            raise RuntimeError("poisoned")

        co = RequestCoalescer(always_bad, fallback=co_mapper.map_reads)
        [out] = co.map_many(requests[:1])
        assert [fingerprint(r) for r in out] == [
            fingerprint(r) for r in co_mapper.map_reads(requests[0])
        ]

    def test_fallback_failure_surfaces_on_handle(self):
        def bad(reads):
            raise RuntimeError("nope")

        co = RequestCoalescer(bad, fallback=bad)
        req_lists = [["ACGT"]]
        with pytest.raises(CoalescerError, match="fallback also failed"):
            co.map_many(req_lists)

    def test_no_fallback_retries_dispatch_per_request(self, co_mapper):
        seen: list[int] = []

        def count_dispatch(reads):
            seen.append(len(reads))
            if len(seen) == 1:
                raise RuntimeError("first merge dies")
            return co_mapper.map_reads(reads)

        co = RequestCoalescer(count_dispatch)  # no fallback
        outs = co.map_many([["ACGT"], ["TTTT"]])
        assert len(outs) == 2 and all(len(o) == 1 for o in outs)
        assert seen == [2, 1, 1]  # merged try, then per-request retries


class TestAdmission:
    def test_queue_cap_raises_full(self, co_mapper, small_text):
        co = RequestCoalescer(
            co_mapper.map_reads,
            config=CoalescerConfig(
                window_seconds=0.5, max_batch_reads=4, max_queue_reads=8
            ),
        )
        read = small_text[0:24]
        with co._cv:  # freeze the flusher so the queue cannot drain
            co.submit([read] * 8)
            with pytest.raises(Overloaded) as info:
                co.submit([read])
        co.close()
        assert info.value.retry_after == 1

    def test_request_over_cap_is_too_large_even_when_idle(self, co_mapper):
        co = RequestCoalescer(
            co_mapper.map_reads,
            config=CoalescerConfig(max_batch_reads=4, max_queue_reads=8),
        )
        with pytest.raises(RequestTooLarge, match="cap of 8"):
            co.submit(["ACGT"] * 9)
        assert co.stats()["requests_total"] == 0
        co.close()

    def test_own_dispatch_rides_alone(self, co_mapper, small_text):
        """A request submitted with its own dispatch is admitted like any
        other but never shares a batch."""
        calls: list[tuple[str, int]] = []

        def default(reads):
            calls.append(("default", len(reads)))
            return co_mapper.map_reads(reads)

        def own(reads):
            calls.append(("own", len(reads)))
            return co_mapper.map_reads(reads)

        co = RequestCoalescer(
            default, config=CoalescerConfig(window_seconds=10.0, max_batch_reads=64)
        )
        read = small_text[5:29]
        with co._cv:  # queue all three before the flusher looks
            handles = [
                co.submit([read]),
                co.submit([read, read], tenant="b", dispatch=own),
                co.submit([read], tenant="c"),
            ]
        co.close(wait=True)
        assert calls == [("default", 1), ("own", 2), ("default", 1)]
        assert co.stats()["requests_total"] == 3
        assert_parity(
            [h.result(0) for h in handles],
            [co_mapper.map_reads(h.reads) for h in handles],
        )

    def test_closed_rejects_submissions(self, co_mapper):
        co = RequestCoalescer(co_mapper.map_reads)
        co.close()
        with pytest.raises(CoalescerClosed):
            co.submit(["ACGT"])

    def test_close_drains_pending(self, co_mapper, small_text):
        co = RequestCoalescer(
            co_mapper.map_reads,
            config=CoalescerConfig(window_seconds=10.0, max_batch_reads=4096),
        )
        req = co.submit([small_text[3:27]])
        co.close(wait=True)  # drain, don't fail
        assert req.done()
        assert len(req.result(0)) == 1


class TestMappingService:
    def test_in_process_service_parity(self, co_index, requests):
        independent = [
            Mapper(co_index, locate=True).map_reads(reads) for reads in requests[:3]
        ]
        with MappingService(co_index, pool_workers=0) as svc:
            merged = [svc.map_request(reads).result(0) for reads in requests[:3]]
        assert_parity(merged, independent)

    def test_uncoalesced_config_dispatches_alone(self, co_index, requests):
        """The uncoalesced ablation is a config, not a bypass: with
        ``max_batch_reads=1`` every request still passes admission but
        rides in a batch of its own."""
        config = CoalescerConfig(window_seconds=0.0, max_batch_reads=1)
        independent = [
            Mapper(co_index, locate=True).map_reads(reads) for reads in requests[:6]
        ]
        with MappingService(co_index, config=config) as svc:
            handles: list = [None] * 6

            def send(i):
                handles[i] = svc.map_request(requests[i])

            threads = [threading.Thread(target=send, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            doc = svc.stats()
        assert_parity([h.result(0) for h in handles], independent)
        assert all(h.batch_reads == len(requests[i]) for i, h in enumerate(handles))
        assert doc["requests_total"] == doc["batches_total"] == 6
        assert doc["coalesced_requests"] == 0

    def test_stats_document_shape(self, co_index):
        with MappingService(co_index) as svc:
            svc.map_request(["ACGT"])
            doc = svc.stats()
        for key in (
            "window_ms", "max_batch_reads", "pending_reads", "requests_total",
            "batches_total", "wait_p95_ms", "added_wait_p95_ms",
            "pool_workers", "locate",
        ):
            assert key in doc


class TestShardVectorized:
    def test_shard_matches_scalar(self, co_index, requests):
        """The numpy round-robin split must stay order-identical to the
        reference slicing — the map_reads demux inverts exactly that."""
        from repro.serving.pool import MapperPool

        flat = [r for reads in requests for r in reads]
        for workers in (1, 2, 3, 7):
            pool = MapperPool.__new__(MapperPool)
            pool.workers = workers
            for reads in ([], ["A"], flat[:3], flat):
                assert pool._shard(list(reads)) == pool._shard_scalar(list(reads))


class TestSpawnService:
    def test_spawn_pool_coalesced_parity(self, co_index, requests):
        """Pool-backed service under the spawn start method: merged
        dispatch through spawned workers stays bit-identical."""
        independent = [
            Mapper(co_index, locate=True).map_reads(reads) for reads in requests[:4]
        ]
        with MappingService(
            co_index, pool_workers=2, start_method="spawn"
        ) as svc:
            merged = [svc.map_request(reads).result(0) for reads in requests[:4]]
        assert_parity(merged, independent)
