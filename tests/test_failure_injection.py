"""Failure-injection tests: the system must fail loudly and precisely.

Covers the failure modes a deployment hits: oversized queries, references
that don't fit the device, corrupted index archives, malformed uploads,
and degenerate inputs (empty patterns/reads/references).
"""

import numpy as np
import pytest

from repro import build_index
from repro.fpga.accelerator import FPGAAccelerator
from repro.fpga.device import DeviceSpec
from repro.mapper.query import QueryTooLongError


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(111)
    text = "".join("ACGT"[c] for c in rng.integers(0, 4, 800))
    index, _ = build_index(text, sf=8)
    return text, index


class TestOversizedQueries:
    def test_accelerator_rejects_long_read(self, setup):
        text, index = setup
        acc = FPGAAccelerator.for_index(index)
        long_read = (text * 2)[:200]  # > 176 bases
        with pytest.raises(QueryTooLongError, match="176"):
            acc.map_batch([text[:30], long_read])

    def test_software_mapper_accepts_long_read(self, setup):
        # The 176-base cap is a *hardware record* limit; the software
        # mapper has no such constraint.
        text, index = setup
        from repro.mapper.mapper import Mapper

        res = Mapper(index, locate=False).map_read(text[:300])
        assert res.forward.found

    def test_exactly_176_ok(self, setup):
        text, index = setup
        acc = FPGAAccelerator.for_index(index)
        run = acc.map_batch([text[:176]])
        assert run.n_reads == 1


class TestDeviceCapacity:
    def test_oversized_reference_rejected_at_kernel_build(self, setup):
        _, index = setup
        nano = DeviceSpec(
            name="nano",
            bram_bytes=4096,
            uram_bytes=0,
            port_bits=512,
            clock_hz=300e6,
            board_power_watts=25.0,
        )
        from repro.fpga.device import CapacityError
        from repro.fpga.kernel import BackwardSearchKernel

        with pytest.raises(CapacityError):
            BackwardSearchKernel(index.backend, spec=nano)


class TestCorruptArchives:
    def test_truncated_container(self, setup, tmp_path):
        from repro.index.flat import IndexFormatError, load_index_flat, save_index_flat

        _, index = setup
        path = tmp_path / "idx.bwvr"
        save_index_flat(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index_flat(path)

    def test_wrong_file_type(self, tmp_path):
        from repro.index.flat import IndexFormatError, load_index_flat

        path = tmp_path / "not_an_index.bwvr"
        path.write_text("this is not a flat index container")
        with pytest.raises(IndexFormatError):
            load_index_flat(path)


class TestDegenerateInputs:
    def test_empty_reference_index(self):
        index, report = build_index("", sf=2)
        assert index.n_rows == 1
        assert index.count("A") == 0
        assert report.text_length == 0

    def test_single_base_reference(self):
        index, _ = build_index("A", sf=2)
        assert index.count("A") == 1
        assert index.count("C") == 0
        assert index.locate("A").tolist() == [0]

    def test_homopolymer_reference(self):
        index, _ = build_index("A" * 200, sf=4)
        assert index.count("AAAA") == 197
        assert index.count("C") == 0

    def test_empty_read_batch_through_accelerator(self, setup):
        _, index = setup
        acc = FPGAAccelerator.for_index(index)
        run = acc.map_batch([])
        assert run.n_reads == 0
        assert run.modeled_kernel_seconds == 0.0

    def test_pattern_longer_than_text(self, setup):
        text, index = setup
        long_pat = text + "ACGT"
        assert index.count(long_pat[: len(text) + 4][:100] * 3) == 0

    def test_invalid_characters_rejected_everywhere(self, setup):
        _, index = setup
        from repro.sequence.alphabet import AlphabetError

        with pytest.raises(AlphabetError):
            index.count("ACGN")
        from repro.mapper.mapper import Mapper
        from repro.mapper.results import REASON_INVALID_BASE

        # The raw index raises; the mapper's N-policy (DESIGN.md 9)
        # converts the rejection into an unmapped result with a reason.
        res = Mapper(index, locate=False).map_read("XYZ")
        assert not res.mapped
        assert res.reason == REASON_INVALID_BASE


class TestWebFailureModes:
    def test_job_survives_invalid_reads(self):
        from repro.web.jobs import JobManager, JobStatus

        mgr = JobManager()
        job = mgr.submit(
            reference_fasta=">r\nACGTACGTACGT\n",
            reads_fastq="@x\nACGT\n+\nII\n",  # quality length mismatch
        )
        assert job.status == JobStatus.ERROR
        assert "quality" in job.error

    def test_job_survives_unbuildable_params(self):
        from repro.web.jobs import JobManager, JobStatus

        mgr = JobManager()
        job = mgr.submit(
            reference_fasta=">r\nACGTACGTACGT\n",
            reads_fastq="@x\nACGT\n+\nIIII\n",
            b=99,  # outside the supported block-size range
        )
        assert job.status == JobStatus.ERROR
