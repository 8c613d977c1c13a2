"""Unit tests for the functional FPGA kernel: equivalence + instrumentation."""

import numpy as np
import pytest

from repro import build_index
from repro.fpga.device import ALVEO_U200, CapacityError, DeviceSpec
from repro.fpga.kernel import BackwardSearchKernel
from repro.mapper.mapper import Mapper
from repro.mapper.query import pack_queries


@pytest.fixture(scope="module")
def kernel(small_index_module):
    index, text = small_index_module
    return BackwardSearchKernel(index.backend), index, text


@pytest.fixture(scope="module")
def small_index_module():
    rng = np.random.default_rng(11)
    text = "".join("ACGT"[c] for c in rng.integers(0, 4, 1500))
    index, _ = build_index(text, b=15, sf=8)
    return index, text


class TestPlacement:
    def test_structure_placed_in_banks(self, small_index_module):
        index, _ = small_index_module
        k = BackwardSearchKernel(index.backend)
        names = set(k.bram.banks)
        assert "global_rank_table" in names
        assert "c_array" in names
        assert any(n.startswith("node0_") for n in names)

    def test_capacity_enforced(self, small_index_module):
        index, _ = small_index_module
        tiny = DeviceSpec(
            name="tiny",
            bram_bytes=1024,
            uram_bytes=0,
            port_bits=512,
            clock_hz=300e6,
            board_power_watts=25.0,
        )
        with pytest.raises(CapacityError):
            BackwardSearchKernel(index.backend, spec=tiny)

    def test_structure_bytes_close_to_size(self, small_index_module):
        index, _ = small_index_module
        k = BackwardSearchKernel(index.backend)
        reported = index.backend.size_in_bytes(include_shared=True)
        assert 0.8 < k.structure_bytes() / reported < 1.3


class TestFunctionalEquivalence:
    def test_matches_software_mapper(self, small_index_module):
        index, text = small_index_module
        k = BackwardSearchKernel(index.backend)
        mapper = Mapper(index, locate=False)
        reads = [text[i : i + 40] for i in range(0, 1000, 83)] + ["ACGT" * 10]
        run = k.execute(pack_queries(reads))
        sw = mapper.map_reads(reads)
        for o, m in zip(run.outcomes, sw):
            assert (o.fwd_start, o.fwd_end) == (
                m.forward.interval.start,
                m.forward.interval.end,
            )
            assert (o.rc_start, o.rc_end) == (
                m.reverse.interval.start,
                m.reverse.interval.end,
            )
            assert o.fwd_steps == m.forward.interval.steps
            assert o.rc_steps == m.reverse.interval.steps
            assert o.hw_steps == m.hardware_steps

    def test_query_ids_preserved(self, small_index_module):
        index, text = small_index_module
        k = BackwardSearchKernel(index.backend)
        run = k.execute(pack_queries([text[:30], text[30:60]], start_id=500))
        assert [o.query_id for o in run.outcomes] == [500, 501]

    def test_mapped_reads_counted(self, small_index_module):
        index, text = small_index_module
        k = BackwardSearchKernel(index.backend)
        run = k.execute(pack_queries([text[:30], "ACGT" * 10]))
        assert run.mapped_reads == 1

    def test_result_array_shape(self, small_index_module):
        index, text = small_index_module
        k = BackwardSearchKernel(index.backend)
        run = k.execute(pack_queries([text[:30]]))
        arr = run.result_array()
        assert arr.shape == (1, 4)
        assert arr[0, 1] > arr[0, 0]  # found

    def test_empty_batch(self, small_index_module):
        index, _ = small_index_module
        k = BackwardSearchKernel(index.backend)
        run = k.execute(pack_queries([]))
        assert run.n_reads == 0
        assert run.hw_steps_total == 0


class TestInstrumentation:
    def test_hw_steps_le_sw_steps(self, small_index_module):
        index, text = small_index_module
        k = BackwardSearchKernel(index.backend)
        reads = [text[i : i + 35] for i in range(0, 700, 51)]
        run = k.execute(pack_queries(reads))
        assert run.hw_steps_total <= run.sw_steps_total
        # Dual pipelines: hw is at least half of sw.
        assert run.hw_steps_total * 2 >= run.sw_steps_total

    def test_bram_traffic_recorded(self, small_index_module):
        index, text = small_index_module
        k = BackwardSearchKernel(index.backend)
        k.bram.reset_traffic()
        k.execute(pack_queries([text[:40]]))
        traffic = k.bram.traffic()
        assert traffic["c_array"][0] > 0
        assert traffic["global_rank_table"][0] > 0

    def test_op_counts_present(self, small_index_module):
        index, text = small_index_module
        k = BackwardSearchKernel(index.backend)
        run = k.execute(pack_queries([text[:40]]))
        assert run.op_counts["bs_steps"] == run.sw_steps_total
        assert run.op_counts["binary_ranks"] > 0


def _reference_outcomes(index, ftab, reads, query_ids):
    """Outcomes as the kernel computed them with its own both-strand copy:
    strings and their reverse-complement strings through one list search,
    executed steps per strand from the read length."""
    from repro.fpga.kernel import QueryOutcome
    from repro.sequence.alphabet import reverse_complement

    lo, hi, steps = index.search_batch(reads + [reverse_complement(s) for s in reads])
    n = len(reads)

    def executed(length, s):
        if ftab is None or length < ftab.k:
            return s
        return max(s - (ftab.k - 1), 1)

    return [
        QueryOutcome(
            query_id=qid,
            fwd_start=int(lo[i]), fwd_end=int(hi[i]),
            rc_start=int(lo[n + i]), rc_end=int(hi[n + i]),
            fwd_steps=int(steps[i]), rc_steps=int(steps[n + i]),
            fwd_exec_steps=executed(len(reads[i]), int(steps[i])),
            rc_exec_steps=executed(len(reads[i]), int(steps[n + i])),
        )
        for i, qid in enumerate(query_ids)
    ]


class TestSharedBatchContract:
    @pytest.mark.parametrize("ftab_k", [None, 5])
    def test_outcomes_match_the_former_both_strand_copy(self, small_index_module, ftab_k):
        """Kernel and CPU-fallback outcomes (``*_exec_steps`` included) are
        what the kernel's and the accelerator's own both-strand loops
        produced before both went through ``Mapper.map_reads``."""
        from repro.fpga.accelerator import FPGAAccelerator

        _, text = small_index_module
        index, _ = build_index(text, b=15, sf=8, locate="none", ftab_k=ftab_k)
        acc = FPGAAccelerator.for_index(index)
        reads = [text[i : i + 3 + i % 60] for i in range(0, 1400, 37)]
        reads += ["", "A", text[:176], "ACGT" * 9]
        run = acc.kernel.execute(pack_queries(reads, start_id=7))
        want = _reference_outcomes(
            acc.kernel._index, acc.kernel.ftab, reads, range(7, 7 + len(reads))
        )
        assert run.outcomes == want
        assert run.hw_steps_total == sum(o.hw_steps for o in want)
        assert run.sw_steps_total == sum(o.fwd_steps + o.rc_steps for o in want)
        # The CPU rung sees raw reads (lowercase, U) and must agree with a
        # clean device run on their ACGT spelling.
        raw = [s.lower().replace("t", "u") if i % 2 else s for i, s in enumerate(reads)]
        cpu = acc._cpu_pass(raw, 7)
        assert cpu.outcomes == want
        assert (cpu.hw_steps_total, cpu.sw_steps_total) == (
            run.hw_steps_total, run.sw_steps_total,
        )


class TestRunLocalCounts:
    def test_other_threads_work_is_not_charged(self, small_index_module):
        """A kernel run's op counts and BRAM traffic are its own: another
        thread mapping an unrelated index at the same time changes
        neither."""
        import threading

        _, text = small_index_module
        rng = np.random.default_rng(5)
        other_text = "".join("ACGT"[c] for c in rng.integers(0, 4, 2000))
        index_a, _ = build_index(other_text, b=15, sf=8)
        index_b, _ = build_index(text, b=15, sf=8)
        reads_a = [other_text[i : i + 40] for i in range(0, 1900, 13)]
        reads_b = pack_queries([text[i : i + 35] for i in range(0, 1400, 29)])

        def run_b():
            run = BackwardSearchKernel(index_b.backend).execute(reads_b)
            return run.op_counts, run.bram_traffic

        solo = run_b()
        stop, busy = threading.Event(), threading.Event()

        def loop_a():
            mapper = Mapper(index_a, locate=False)
            while not stop.is_set():
                mapper.map_reads(reads_a)
                busy.set()

        other = threading.Thread(target=loop_a)
        other.start()
        try:
            assert busy.wait(10.0)
            concurrent = [run_b() for _ in range(5)]
        finally:
            stop.set()
            other.join(10.0)
        assert not other.is_alive()
        assert all(got == solo for got in concurrent)
