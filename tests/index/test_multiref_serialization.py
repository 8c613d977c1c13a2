"""Unit tests for multi-reference index persistence and CLI routing."""

import numpy as np
import pytest

from repro.index.flat import (
    IndexFormatError,
    load_multiref_index_flat,
    save_index_flat,
    save_multiref_index_flat,
)
from repro.index.multiref import MultiReferenceIndex


def make_seq(n, seed):
    rng = np.random.default_rng(seed)
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


@pytest.fixture(scope="module")
def refs():
    return [("chrA", make_seq(700, 181)), ("chrB", make_seq(500, 182))]


@pytest.fixture(scope="module")
def multi(refs):
    return MultiReferenceIndex(refs, sf=8)


class TestMultirefSerialization:
    def test_roundtrip_queries(self, refs, multi, tmp_path):
        path = tmp_path / "m.bwvr"
        save_multiref_index_flat(multi, path)
        loaded = load_multiref_index_flat(path)
        assert loaded.names == multi.names
        assert np.array_equal(loaded.lengths, multi.lengths)
        for name, seq in refs:
            pat = seq[50:90]
            assert loaded.locate(pat) == multi.locate(pat)

    def test_boundary_filtering_preserved(self, refs, multi, tmp_path):
        path = tmp_path / "m.bwvr"
        save_multiref_index_flat(multi, path)
        loaded = load_multiref_index_flat(path)
        spanning = refs[0][1][-10:] + refs[1][1][:10]
        assert loaded.count(spanning) == 0

    def test_map_read_after_load(self, refs, multi, tmp_path):
        path = tmp_path / "m.bwvr"
        save_multiref_index_flat(multi, path)
        loaded = load_multiref_index_flat(path)
        read = refs[1][1][200:240]
        mapping = loaded.map_read(read)
        assert any(h.name == "chrB" and h.position == 200 for h in mapping.hits)

    def test_rejects_single_index(self, tmp_path):
        from repro import build_index

        index, _ = build_index(make_seq(300, 183), sf=8)
        path = tmp_path / "s.bwvr"
        save_index_flat(index, path)
        with pytest.raises(IndexFormatError, match="single-reference"):
            load_multiref_index_flat(path)

    def test_rejects_wrong_type(self, tmp_path):
        with pytest.raises(IndexFormatError, match="MultiReferenceIndex"):
            save_multiref_index_flat(object(), tmp_path / "x.bwvr")


class TestMultirefCli:
    def test_index_and_map(self, refs, tmp_path, capsys):
        from repro.cli import main
        from repro.io.fasta import FastaRecord, write_fasta
        from repro.io.fastq import FastqRecord, write_fastq

        fa = tmp_path / "multi.fa"
        write_fasta([FastaRecord(n, "", s) for n, s in refs], fa)
        reads = [refs[0][1][100:140], "ACGT" * 10]
        fq = tmp_path / "r.fq"
        write_fastq(
            [FastqRecord(f"r{i}", s, "I" * len(s)) for i, s in enumerate(reads)], fq
        )
        idx = tmp_path / "m.bwvr"
        assert main(["index", str(fa), "-o", str(idx), "-s", "8"]) == 0
        out = tmp_path / "hits.tsv"
        assert main(["map", str(idx), str(fq), "-o", str(out)]) == 0
        body = out.read_text().splitlines()
        assert body[0] == "read\tsequence\tposition\tstrand"
        assert "r0\tchrA\t100\t+" in body
        sam = tmp_path / "hits.sam"
        assert main(["map", str(idx), str(fq), "-o", str(sam), "--format", "sam"]) == 0
        lines = sam.read_text().splitlines()
        assert any(l.startswith("@SQ\tSN:chrA") for l in lines)
        assert any(l.startswith("@SQ\tSN:chrB") for l in lines)
