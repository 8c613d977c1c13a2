"""Integration tests: full pipelines across modules.

These exercise the workflows a user actually runs — refgen → build →
map → locate → verify against ground truth, on both backends, through
the software mapper, the simulated FPGA, the baseline, and the web app —
and assert the cross-engine agreement the paper's accuracy claim rests on.
"""

import io

import numpy as np
import pytest

from repro import Mapper, build_index, load_index, save_index
from repro.baseline.bowtie2_like import Bowtie2Like, assert_same_accuracy
from repro.fpga.accelerator import FPGAAccelerator
from repro.io.readsim import simulate_reads
from repro.io.refgen import E_COLI_LIKE, generate_reference
from repro.mapper.results import write_hits_tsv


@pytest.fixture(scope="module")
def pipeline():
    ref = generate_reference(E_COLI_LIKE, scale=0.004, seed=99)  # ~18.5 kbp
    index, report = build_index(ref, b=15, sf=50)
    reads = simulate_reads(ref, 120, 60, mapping_ratio=0.7, seed=100)
    return ref, index, report, reads


class TestEndToEnd:
    def test_every_mapped_read_found_at_truth_position(self, pipeline):
        ref, index, _, rs = pipeline
        mapper = Mapper(index)
        results = mapper.map_reads(rs.reads)
        for res, truth in zip(results, rs.truth):
            assert res.mapped == truth.mapped, truth.name
            if not truth.mapped:
                continue
            if truth.strand == "+":
                assert truth.position in res.forward.positions.tolist()
            else:
                assert truth.position in res.reverse.positions.tolist()

    def test_mapping_ratio_matches_simulation(self, pipeline):
        _, index, _, rs = pipeline
        mapper = Mapper(index, locate=False)
        results = mapper.map_reads(rs.reads)
        got = sum(1 for r in results if r.mapped) / len(results)
        assert got == pytest.approx(rs.mapping_ratio)

    def test_compression_achieved_on_realistic_reference(self, pipeline):
        _, _, report, _ = pipeline
        # At 18 kbp the shared 64 KiB table still dominates; check the
        # reference-proportional portion compresses instead.
        variable = report.structure_bytes - (1 << 15) * 2
        assert variable < report.uncompressed_bytes


class TestCrossEngineAgreement:
    """The paper's 'without any loss in accuracy' claim, as a test."""

    def test_fpga_equals_software(self, pipeline):
        _, index, _, rs = pipeline
        mapper = Mapper(index, locate=False)
        sw = mapper.map_reads(rs.reads)
        acc = FPGAAccelerator.for_index(index)
        hw = acc.map_batch(rs.reads, batch_size=32)
        for m, o in zip(sw, hw.kernel_run.outcomes):
            assert (o.fwd_start, o.fwd_end) == (
                m.forward.interval.start,
                m.forward.interval.end,
            )
            assert (o.rc_start, o.rc_end) == (
                m.reverse.interval.start,
                m.reverse.interval.end,
            )

    def test_bowtie2_like_equals_software(self, pipeline):
        ref, index, _, rs = pipeline
        mapper = Mapper(index, locate=False)
        sw = mapper.map_reads(rs.reads)
        baseline = Bowtie2Like(ref)
        bt = baseline.map_reads(rs.reads)
        assert_same_accuracy(sw, bt.results)

    def test_occ_backend_equals_rrr_backend(self, pipeline):
        ref, index, _, rs = pipeline
        occ_index, _ = build_index(ref, backend="occ")
        a = Mapper(index, locate=False).map_reads(rs.reads)
        b = Mapper(occ_index, locate=False).map_reads(rs.reads)
        assert_same_accuracy(a, b)

    def test_parameter_independence(self, pipeline):
        """(b, sf) trade space for time but never change results."""
        ref, _, _, rs = pipeline
        reads = rs.reads[:30]
        reference_counts = None
        for b, sf in [(8, 4), (15, 50), (15, 200), (12, 10)]:
            idx, _ = build_index(ref, b=b, sf=sf, locate="none")
            counts = [
                (r.forward.count, r.reverse.count)
                for r in Mapper(idx, locate=False).map_reads(reads)
            ]
            if reference_counts is None:
                reference_counts = counts
            assert counts == reference_counts, (b, sf)


class TestPersistenceWorkflow:
    def test_save_load_map(self, pipeline, tmp_path):
        ref, index, _, rs = pipeline
        path = tmp_path / "ref.bwvr"
        save_index(index, path)
        loaded = load_index(path)
        a = Mapper(index, locate=False).map_reads(rs.reads[:20])
        b = Mapper(loaded, locate=False).map_reads(rs.reads[:20])
        assert_same_accuracy(a, b)


class TestReportingWorkflow:
    def test_tsv_roundtrip_contains_truth(self, pipeline):
        _, index, _, rs = pipeline
        results = Mapper(index).map_reads(rs.reads[:20])
        buf = io.StringIO()
        write_hits_tsv(results, buf)
        text = buf.getvalue()
        for res, truth in zip(results, rs.truth[:20]):
            if truth.mapped:
                assert str(truth.position) in text


class TestWebPipelineIntegration:
    def test_simulated_files_through_webapp(self, pipeline):
        import json

        from repro.io.fastq import write_fastq
        from repro.web.server import BWaveRApp

        ref, _, _, rs = pipeline
        fasta = f">synthetic test\n{ref}\n"
        fastq_lines = []
        for rec in rs.to_fastq()[:25]:
            fastq_lines.append(f"@{rec.name}\n{rec.sequence}\n+\n{rec.quality}\n")
        app = BWaveRApp()
        body = json.dumps(
            {"reference_fasta": fasta, "reads_fastq": "".join(fastq_lines), "sf": 50}
        ).encode()
        captured = {}

        def sr(status, headers):
            captured["status"] = status

        env = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/jobs",
            "CONTENT_LENGTH": str(len(body)),
            "CONTENT_TYPE": "application/json",
            "wsgi.input": io.BytesIO(body),
        }
        resp = json.loads(b"".join(app(env, sr)))
        assert captured["status"].startswith("201")
        assert resp["status"] == "done"
        expected_mapped = sum(1 for t in rs.truth[:25] if t.mapped)
        assert resp["n_mapped"] == expected_mapped
