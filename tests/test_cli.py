"""Unit tests for the command-line interface."""

import gzip

import pytest

from repro.cli import main
from repro.io.fasta import FastaRecord, write_fasta
from repro.io.fastq import FastqRecord, write_fastq


@pytest.fixture()
def workspace(tmp_path):
    """A reference FASTA + matching FASTQ on disk."""
    import numpy as np

    rng = np.random.default_rng(101)
    ref = "".join("ACGT"[c] for c in rng.integers(0, 4, 3000))
    fasta = tmp_path / "ref.fa"
    write_fasta([FastaRecord("ref1", "test", ref)], fasta)
    reads = [ref[i : i + 50] for i in range(0, 1000, 100)] + ["ACGT" * 12]
    fastq = tmp_path / "reads.fq"
    write_fastq(
        [FastqRecord(f"r{i}", s, "I" * len(s)) for i, s in enumerate(reads)], fastq
    )
    return tmp_path, ref, fasta, fastq, reads


class TestIndexCommand:
    def test_builds_and_reports(self, workspace, capsys):
        tmp, ref, fasta, fastq, reads = workspace
        out = tmp / "ref.bwvr"
        assert main(["index", str(fasta), "-o", str(out), "-s", "8"]) == 0
        assert out.read_bytes()[:8] == b"BWVRFLT1"
        captured = capsys.readouterr().out
        assert "3,000 bp" in captured
        assert "structure" in captured

    @pytest.mark.parametrize("flags", [[], ["--blockwise"], ["--backend", "occ"]])
    def test_small_reference_saving_is_never_negative(self, workspace, capsys, flags):
        """At 3 kbp the shared rank table outweighs the index: it is
        printed on its own, and the index's saving stays positive."""
        import re

        from repro.core.global_tables import get_global_tables

        tmp, ref, fasta, _, _ = workspace
        assert main(["index", str(fasta), "-o", str(tmp / "ref.bwvr"), *flags]) == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("structure:")
        )
        own, saved = re.match(r"structure: ([\d,]+) B \(([\d.]+)% saved vs 1 B/char\)", line).groups()
        assert 0 < int(own.replace(",", "")) < len(ref)
        assert 0.0 < float(saved) < 100.0
        if "occ" in flags:
            assert "shared rank table" not in line
        else:
            table = get_global_tables(15).size_in_bytes()
            assert f"+ {table:,} B shared rank table" in line

    def test_gzip_input(self, workspace, tmp_path):
        tmp, ref, fasta, _, _ = workspace
        gz = tmp_path / "ref.fa.gz"
        gz.write_bytes(gzip.compress(fasta.read_bytes()))
        out = tmp_path / "ref.bwvr"
        assert main(["index", str(gz), "-o", str(out)]) == 0

    def test_multirecord_builds_multiref(self, tmp_path, capsys):
        fasta = tmp_path / "multi.fa"
        write_fasta(
            [FastaRecord("a", "", "ACGTACGT" * 10), FastaRecord("b", "", "GGTTCCAA" * 10)],
            fasta,
        )
        out = tmp_path / "x.bwvr"
        rc = main(["index", str(fasta), "-o", str(out), "-s", "4"])
        assert rc == 0
        assert "multi-sequence reference: 2 records" in capsys.readouterr().out
        from repro.index.flat import load_multiref_index_flat

        loaded = load_multiref_index_flat(out)
        assert loaded.names == ("a", "b")

    def test_multirecord_with_blockwise_flag(self, tmp_path):
        """``--blockwise`` is implied: a two-record FASTA builds with it,
        to the same bytes as without it, with a small ``--block-mb``, and
        as the multi-reference index built in memory."""
        from repro.index.flat import save_multiref_index_flat
        from repro.index.multiref import MultiReferenceIndex

        records = [FastaRecord("a", "", "ACGTACGT" * 10), FastaRecord("b", "", "GGTTCCAA" * 10)]
        fasta = tmp_path / "multi.fa"
        write_fasta(records, fasta)
        outs = []
        for i, flags in enumerate([[], ["--blockwise"], ["--blockwise", "--block-mb", "0.01"]]):
            out = tmp_path / f"x{i}.bwvr"
            assert main(["index", str(fasta), "-o", str(out), "-s", "4", *flags]) == 0
            outs.append(out.read_bytes())
        save_multiref_index_flat(MultiReferenceIndex(records, sf=4), tmp_path / "ref.bwvr")
        assert outs == [(tmp_path / "ref.bwvr").read_bytes()] * 3

    def test_multirecord_resume_refused(self, tmp_path, capsys):
        fasta = tmp_path / "multi.fa"
        write_fasta(
            [FastaRecord("a", "", "ACGTACGT" * 10), FastaRecord("b", "", "GGTTCCAA" * 10)],
            fasta,
        )
        out = tmp_path / "x.bwvr"
        rc = main(["index", str(fasta), "-o", str(out), "--blockwise", "--resume"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --resume")
        assert "single-reference" in err[0]
        assert not out.exists()

    def test_empty_fasta_rejected(self, tmp_path, capsys):
        fasta = tmp_path / "empty.fa"
        fasta.write_text(">only_header\n")
        rc = main(["index", str(fasta), "-o", str(tmp_path / "x.bwvr")])
        assert rc == 2
        assert "empty sequence" in capsys.readouterr().err

    def test_occ_backend(self, workspace):
        tmp, _, fasta, _, _ = workspace
        out = tmp / "occ.bwvr"
        assert main(["index", str(fasta), "-o", str(out), "--backend", "occ"]) == 0

    def test_resume_of_older_builder_state_is_one_error_line(self, workspace, capsys):
        """A work directory written by an older builder cannot be resumed:
        one ``error:`` line and exit 2, no traceback, no container."""
        import json

        tmp, _, fasta, _, _ = workspace
        out = tmp / "old.bwvr"
        work = tmp / "old.bwvr.build"
        work.mkdir()
        (work / "state.json").write_text(json.dumps({"version": 2}))
        rc = main(["index", str(fasta), "-o", str(out), "--blockwise", "--resume"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "builder version" in err[0] and "without resume" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize("kind", ["dir", "file"])
    def test_foreign_work_dir_survives(self, workspace, capsys, kind, resume):
        """A ``<output>.build`` the builder did not make (a directory with
        no ``state.json``, or a file) is neither deleted nor written to:
        one ``error:`` line, exit 2."""
        tmp, _, fasta, _, _ = workspace
        out = tmp / "mine.bwvr"
        work = tmp / "mine.bwvr.build"
        if kind == "dir":
            work.mkdir()
            (work / "notes.txt").write_text("keep me")
        else:
            work.write_text("keep me")
        flags = ["--resume"] if resume else []
        rc = main(["index", str(fasta), "-o", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "not a build work directory" in err[0]
        if kind == "dir":
            assert [p.name for p in work.iterdir()] == ["notes.txt"]
            assert (work / "notes.txt").read_text() == "keep me"
        else:
            assert work.read_text() == "keep me"
        assert not out.exists()


class TestMapCommand:
    def test_cpu_mapping(self, workspace, capsys):
        tmp, ref, fasta, fastq, reads = workspace
        idx = tmp / "ref.bwvr"
        main(["index", str(fasta), "-o", str(idx), "-s", "8"])
        out = tmp / "hits.tsv"
        assert main(["map", str(idx), str(fastq), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == len(reads) + 1
        assert f"mapped {len(reads) - 1}/{len(reads)}" in capsys.readouterr().out

    def test_sam_output(self, workspace):
        tmp, ref, fasta, fastq, reads = workspace
        idx = tmp / "ref.bwvr"
        main(["index", str(fasta), "-o", str(idx), "-s", "8"])
        out = tmp / "hits.sam"
        assert main(
            [
                "map", str(idx), str(fastq), "-o", str(out),
                "--format", "sam", "--reference-name", "ref1",
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("@HD")
        assert any(l.startswith("@SQ\tSN:ref1\tLN:3000") for l in lines)
        body = [l for l in lines if not l.startswith("@")]
        assert len(body) == len(reads)  # unique hits + one unmapped line
        assert any("\t4\t*" in l for l in body)  # the unmapped read

    def test_fpga_mapping(self, workspace, capsys):
        tmp, ref, fasta, fastq, reads = workspace
        idx = tmp / "ref.bwvr"
        main(["index", str(fasta), "-o", str(idx), "-s", "8"])
        out = tmp / "hits_fpga.tsv"
        assert main(["map", str(idx), str(fastq), "-o", str(out), "--device", "fpga"]) == 0
        captured = capsys.readouterr().out
        assert "simulated FPGA" in captured
        assert "modeled" in captured
        assert out.exists()


class TestInspectCommand:
    def test_prints_and_validates(self, workspace, capsys):
        tmp, _, fasta, _, _ = workspace
        idx = tmp / "ref.bwvr"
        main(["index", str(fasta), "-o", str(idx), "-s", "8"])
        assert main(["inspect", str(idx), "--validate"]) == 0
        captured = capsys.readouterr().out
        assert "b=15, sf=8" in captured
        assert "checksums: OK" in captured
        assert "validation: OK" in captured

    def test_multirecord_index(self, tmp_path, capsys):
        fasta = tmp_path / "multi.fa"
        write_fasta(
            [FastaRecord("a", "", "ACGTTGCA" * 40), FastaRecord("b", "", "GGATCCAT" * 30)],
            fasta,
        )
        idx = tmp_path / "multi.bwvr"
        assert main(["index", str(fasta), "-o", str(idx), "-s", "8"]) == 0
        assert main(["inspect", str(idx), "--validate"]) == 0
        captured = capsys.readouterr().out
        assert "sequences: 2" in captured
        assert "checksums: OK" in captured
        assert "validation: OK" in captured


class TestUnreadableIndex:
    """``map`` and ``inspect`` refuse a bad container with one error line."""

    def _flipped(self, workspace):
        tmp, _, fasta, _, _ = workspace
        idx = tmp / "ref.bwvr"
        assert main(["index", str(fasta), "-o", str(idx), "-s", "8"]) == 0
        raw = bytearray(idx.read_bytes())
        raw[-3] ^= 0x01  # one data byte inside the last segment
        idx.write_bytes(bytes(raw))
        return idx

    def test_map_rejects_flipped_byte(self, workspace, capsys):
        idx = self._flipped(workspace)
        capsys.readouterr()
        out = workspace[0] / "hits.tsv"
        assert main(["map", str(idx), str(workspace[3]), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checksum mismatch")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["map", "inspect"])
    def test_zip_archive_names_the_rebuild(self, workspace, tmp_path, capsys, command):
        import numpy as np

        archive = tmp_path / "old.npz"
        np.savez_compressed(archive, bwt_codes=np.zeros(8, dtype=np.uint8))
        argv = [command, str(archive)]
        if command == "map":
            argv += [str(workspace[3]), "-o", str(tmp_path / "hits.tsv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ".npz index archives are no longer read" in err
        assert "bwaver-repro index" in err


class TestSimulateCommand:
    def test_reference_and_reads(self, tmp_path, capsys):
        ref_out = tmp_path / "sim.fa"
        reads_out = tmp_path / "sim.fq.gz"
        rc = main(
            [
                "simulate",
                "--reference-out", str(ref_out),
                "--reads-out", str(reads_out),
                "--scale", "0.002",
                "--n-reads", "40",
                "--read-length", "60",
                "--mapping-ratio", "0.5",
            ]
        )
        assert rc == 0
        assert ref_out.exists() and reads_out.exists()
        from repro.io.fastq import read_fastq

        recs = read_fastq(reads_out)  # gz detected by magic
        assert len(recs) == 40
        assert all(r.length == 60 for r in recs)

    def test_reads_from_existing_reference(self, workspace, tmp_path):
        _, _, fasta, _, _ = workspace
        reads_out = tmp_path / "more.fq"
        rc = main(
            [
                "simulate",
                "--reference-in", str(fasta),
                "--reads-out", str(reads_out),
                "--n-reads", "10",
                "--read-length", "30",
            ]
        )
        assert rc == 0
        assert reads_out.exists()

    def test_missing_reference_errors(self, tmp_path, capsys):
        rc = main(["simulate", "--reads-out", str(tmp_path / "x.fq")])
        assert rc == 2
        assert "reference" in capsys.readouterr().err


class TestEndToEndCli:
    def test_simulate_index_map_pipeline(self, tmp_path, capsys):
        ref = tmp_path / "r.fa"
        reads = tmp_path / "r.fq"
        idx = tmp_path / "r.bwvr"
        hits = tmp_path / "r.tsv"
        assert main(["simulate", "--reference-out", str(ref), "--reads-out", str(reads),
                     "--scale", "0.001", "--n-reads", "30", "--read-length", "40",
                     "--mapping-ratio", "0.8"]) == 0
        assert main(["index", str(ref), "-o", str(idx), "-s", "8"]) == 0
        assert main(["map", str(idx), str(reads), "-o", str(hits)]) == 0
        out = capsys.readouterr().out
        assert "mapped 24/30" in out


class TestTelemetryFlags:
    def _build(self, workspace, tmp_path):
        tmp, ref, fasta, fastq, reads = workspace
        idx = tmp_path / "t.bwvr"
        assert main(["index", str(fasta), "-o", str(idx), "-s", "8"]) == 0
        return idx, fastq

    def test_map_writes_all_three_artifacts(self, workspace, tmp_path, capsys):
        import json

        idx, fastq = self._build(workspace, tmp_path)
        metrics = tmp_path / "m.prom"
        trace = tmp_path / "t.json"
        log = tmp_path / "l.jsonl"
        rc = main([
            "map", str(idx), str(fastq), "-o", str(tmp_path / "h.tsv"),
            "--device", "fpga",
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
            "--log-json", str(log),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry: metrics snapshot" in out
        text = metrics.read_text()
        assert "fpga_runs_total 1" in text
        assert "mapper_reads_total" in text
        doc = json.loads(trace.read_text())
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {e["pid"] for e in slices} == {0, 1}
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert lines
        run_ids = {line["run_id"] for line in lines}
        assert len(run_ids) >= 1

    def test_index_metrics_out(self, workspace, tmp_path):
        tmp, ref, fasta, fastq, reads = workspace
        idx = tmp_path / "i.bwvr"
        metrics = tmp_path / "i.prom"
        assert main(["index", str(fasta), "-o", str(idx), "-s", "8",
                     "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "index_builds_total 1" in text
        assert "index_structure_bytes" in text

    def test_no_flags_leaves_telemetry_disabled(self, workspace, tmp_path):
        from repro.telemetry import get_telemetry

        idx, fastq = self._build(workspace, tmp_path)
        assert main(["map", str(idx), str(fastq),
                     "-o", str(tmp_path / "h.tsv")]) == 0
        assert get_telemetry().enabled is False

    def test_session_restores_disabled_default(self, workspace, tmp_path):
        from repro.telemetry import get_telemetry

        idx, fastq = self._build(workspace, tmp_path)
        assert main(["map", str(idx), str(fastq), "-o", str(tmp_path / "h.tsv"),
                     "--metrics-out", str(tmp_path / "m.prom")]) == 0
        assert get_telemetry().enabled is False


class TestSelfcheck:
    def test_quick_run_passes(self, capsys):
        rc = main(
            [
                "selfcheck",
                "--seed", "0",
                "--rounds", "2",
                "--profile", "quick",
                "--checks", "rrr,fm",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "selfcheck: PASS" in out
        assert "rrr" in out and "fm" in out

    def test_replay_committed_corpus(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).parent / "corpus"
        rc = main(["selfcheck", "--replay", str(corpus), "--profile", "quick"])
        assert rc == 0
        assert "selfcheck: PASS" in capsys.readouterr().out

    def test_metrics_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "metrics.txt"
        rc = main(
            [
                "selfcheck",
                "--seed", "1",
                "--rounds", "1",
                "--profile", "quick",
                "--checks", "rrr",
                "--metrics-out", str(snap),
            ]
        )
        assert rc == 0
        assert 'selfcheck_rounds_total{check="rrr"} 1' in snap.read_text()
