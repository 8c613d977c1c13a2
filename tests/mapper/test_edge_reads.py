"""Edge-case reads must get identical answers on every execution path.

The same five read classes (empty, read == reference, lowercase, N-read,
longer-than-reference) go through the CPU mapper, the FPGA functional
model, and the shared-memory worker pool; the SA intervals and reason
codes must agree bit-for-bit (DESIGN.md 9)."""

import pytest

from repro import build_index
from repro.core.counters import CounterScope
from repro.fpga.accelerator import FPGAAccelerator
from repro.mapper.mapper import Mapper
from repro.mapper.results import REASON_INVALID_BASE

REFERENCE = (
    "ACGTACGTACGGATCCTAGGCATGCATGCCCGGGTTTAAACGCGCGCGATATATCGCG"
    "TACGTAGCTAGCTAGGATCGATCGGCCGGCCAATTAATT"
)

EDGE_READS = [
    "",                      # empty: matches once per reference position
    REFERENCE,               # read == reference
    REFERENCE[10:30].lower(),  # lowercase spelling
    "ACGNACGT",              # N-read: unmapped with a reason, never a crash
    REFERENCE + "ACGT",      # longer than the reference
    "acgtacgtacgg",          # lowercase prefix
    "NNNNN",                 # all-N
]


@pytest.fixture(scope="module")
def index():
    idx, _ = build_index(REFERENCE, b=15, sf=8, backend="rrr")
    return idx


@pytest.fixture(scope="module")
def cpu_results(index):
    return Mapper(index, locate=False).map_reads(EDGE_READS)


def _intervals(res):
    f, r = res.forward.interval, res.reverse.interval
    return (f.start, f.end, r.start, r.end)


class TestCPUMapper:
    def test_empty_read_counts_every_position(self, cpu_results):
        res = cpu_results[0]
        assert res.forward.interval.start == 1
        assert res.forward.interval.count == len(REFERENCE)
        assert res.reason is None

    def test_whole_reference_read_maps_once(self, cpu_results):
        assert cpu_results[1].forward.count == 1

    def test_lowercase_equals_uppercase(self, index, cpu_results):
        upper = Mapper(index, locate=False).map_read(REFERENCE[10:30])
        assert _intervals(cpu_results[2]) == _intervals(upper)

    def test_n_read_unmapped_with_reason(self, cpu_results):
        for i in (3, 6):
            assert not cpu_results[i].mapped
            assert cpu_results[i].reason == REASON_INVALID_BASE

    def test_longer_than_reference_unmapped(self, cpu_results):
        res = cpu_results[4]
        assert not res.forward.found and not res.reverse.found
        assert res.reason is None  # valid read, legitimately unmapped

    def test_batch_equals_scalar(self, index, cpu_results):
        mapper = Mapper(index, locate=False)
        for i, read in enumerate(EDGE_READS):
            scalar = mapper.map_read(read, read_id=i)
            assert _intervals(scalar) == _intervals(cpu_results[i])
            assert scalar.reason == cpu_results[i].reason

    def test_invalid_counter_increments(self, index):
        with CounterScope() as scope:
            Mapper(index, locate=False).map_reads(EDGE_READS)
        assert scope.delta["reads_invalid"] == 2


class TestFPGASimulator:
    def test_intervals_bit_identical_to_cpu(self, index, cpu_results):
        run = FPGAAccelerator.for_index(index).map_batch(EDGE_READS)
        outcomes = sorted(run.kernel_run.outcomes, key=lambda o: o.query_id)
        assert len(outcomes) == len(EDGE_READS)
        for i, out in enumerate(outcomes):
            if EDGE_READS[i] and not cpu_results[i].reason:
                got = (out.fwd_start, out.fwd_end, out.rc_start, out.rc_end)
                assert got == _intervals(cpu_results[i]), EDGE_READS[i]

    def test_invalid_reads_come_back_all_zero(self, index):
        run = FPGAAccelerator.for_index(index).map_batch(EDGE_READS)
        outcomes = sorted(run.kernel_run.outcomes, key=lambda o: o.query_id)
        for i in (3, 6):
            out = outcomes[i]
            assert not out.mapped
            assert (out.fwd_start, out.fwd_end, out.rc_start, out.rc_end) == (
                0, 0, 0, 0,
            )

    def test_single_n_read_does_not_kill_batch(self, index):
        # The seed bug: one bad read used to raise out of the whole batch.
        run = FPGAAccelerator.for_index(index).map_batch(["ACGT", "NNN", "ACGT"])
        assert run.n_reads == 3
        assert run.kernel_run.mapped_reads == 2


class TestMapperPool:
    def test_pool_matches_cpu(self, index, cpu_results):
        from repro.serving.pool import MapperPool

        with MapperPool(index=index, workers=2) as pool:
            remote = pool.map_reads(EDGE_READS)
        remote = sorted(remote, key=lambda r: r.read_id)
        assert len(remote) == len(EDGE_READS)
        for local, r in zip(cpu_results, remote):
            assert _intervals(r) == _intervals(local)
            assert r.reason == local.reason
