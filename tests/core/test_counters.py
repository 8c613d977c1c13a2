"""Unit tests for operation counters and the run-scoped counting contract."""

import threading

import numpy as np
import pytest

from repro import build_index
from repro.core.counters import UNCOUNTED, CounterScope, OpCounters, current_counters
from repro.core.rrr import RRRVector
from repro.mapper.batch import run_mapping_batch
from repro.mapper.mapper import Mapper


class TestOpCounters:
    def test_starts_at_zero(self):
        c = OpCounters()
        assert all(v == 0 for v in c.snapshot().values())

    def test_merge_accumulates(self):
        a = OpCounters(bs_steps=3)
        b = OpCounters(bs_steps=4, wt_ranks=1)
        a.merge(b)
        assert a.bs_steps == 7 and a.wt_ranks == 1

    def test_snapshot_is_plain_dict(self):
        snap = OpCounters(table_lookups=2).snapshot()
        assert isinstance(snap, dict)
        assert snap["table_lookups"] == 2


class TestCounterScope:
    def test_captures_delta(self):
        with CounterScope() as scope:
            current_counters().bs_steps += 7
            current_counters().queries += 1
        assert scope.delta["bs_steps"] == 7
        assert scope.delta["queries"] == 1
        assert scope.delta["wt_ranks"] == 0

    def test_nested_scopes(self):
        """An outer scope sees the counts charged inside an inner one."""
        with CounterScope() as outer:
            current_counters().bs_steps += 1
            with CounterScope() as inner:
                current_counters().bs_steps += 2
            current_counters().bs_steps += 3
        assert inner.delta["bs_steps"] == 2
        assert outer.delta["bs_steps"] == 6

    def test_scope_survives_exception(self):
        with pytest.raises(RuntimeError):
            with CounterScope() as scope:
                current_counters().bs_steps += 4
                raise RuntimeError("boom")
        assert scope.delta["bs_steps"] == 4
        assert current_counters() is UNCOUNTED

    def test_nothing_is_charged_outside_a_scope(self, small_index, small_text):
        assert current_counters() is UNCOUNTED
        small_index.search_batch([small_text[10:40], small_text[50:90]])
        small_index.search(small_text[5:30])
        assert all(v == 0 for v in UNCOUNTED.snapshot().values())
        assert small_index.counters.snapshot() == OpCounters().snapshot()

    def test_structures_charge_the_innermost_scope(self, small_index, small_text):
        with CounterScope() as scope:
            assert small_index.counters is scope.counters
            small_index.search(small_text[10:40])
        assert scope.delta["bs_steps"] == 30
        assert scope.delta["queries"] == 1

    def test_batch_kernels_charge_only_inside_a_scope(self):
        bits = np.random.default_rng(2).integers(0, 2, 600).astype(np.uint8)
        v = RRRVector(bits, b=15, sf=4)
        positions = np.arange(0, 601, 7)
        outside = v.rank1_many(positions)
        with CounterScope() as scope:
            inside = v.rank1_many(positions)
        assert np.array_equal(outside, inside)
        assert scope.delta["binary_ranks"] == positions.size

    def test_thread_started_inside_scope_charges_nothing_to_it(
        self, small_index, small_text
    ):
        seen = []

        def work():
            seen.append(current_counters())
            Mapper(small_index, locate=False).map_reads([small_text[:40]] * 8)

        with CounterScope() as scope:
            t = threading.Thread(target=work)
            t.start()
            t.join()
        assert seen == [UNCOUNTED]
        assert all(v == 0 for v in scope.delta.values())


class TestPoolCounting:
    @pytest.fixture(scope="class")
    def pool_and_reads(self, small_text):
        from repro.serving.pool import MapperPool

        index, _ = build_index(small_text, sf=8)
        reads = [small_text[i : i + 36] for i in range(0, 1400, 37)] + ["ACGTN" * 7]
        with MapperPool(index, workers=2) as pool:
            yield index, pool, reads

    def test_run_batch_counts_equal_in_process_run(self, pool_and_reads):
        index, pool, reads = pool_and_reads
        assert pool.run_batch(reads).op_counts == run_mapping_batch(index, reads).op_counts

    def test_map_replies_carry_no_counter_delta(self, pool_and_reads, monkeypatch):
        _, pool, reads = pool_and_reads
        replies = []
        real = pool._submit

        def spy(shards, locate, ship):
            out = real(shards, locate, ship)
            replies.extend(out.values())
            return out

        monkeypatch.setattr(pool, "_submit", spy)
        assert len(pool.map_reads(reads)) == len(reads)
        assert replies and all(delta is None for _, delta, _ in replies)
