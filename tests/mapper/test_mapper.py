"""Unit tests for the both-strand exact mapper."""

import numpy as np
import pytest

from repro import build_index
from repro.baseline.naive import find_all_both_strands
from repro.mapper.mapper import Mapper
from repro.mapper.results import mapping_ratio, write_hits_tsv
from repro.mapper.sam import write_sam_single
from repro.sequence.alphabet import reverse_complement

import io


class TestMapRead:
    def test_forward_hit(self, small_index, small_text):
        mapper = Mapper(small_index)
        read = small_text[200:240]
        res = mapper.map_read(read)
        assert res.mapped
        assert 200 in res.forward.positions.tolist()

    def test_reverse_hit(self, small_index, small_text):
        mapper = Mapper(small_index)
        read = reverse_complement(small_text[300:340])
        res = mapper.map_read(read)
        assert res.reverse.found
        assert 300 in res.reverse.positions.tolist()

    def test_unmapped_read(self, small_index, small_text):
        mapper = Mapper(small_index)
        read = "ACGT" * 15
        assert read not in small_text
        assert reverse_complement(read) not in small_text
        res = mapper.map_read(read)
        assert not res.mapped
        assert res.total_occurrences == 0

    def test_positions_match_oracle(self, small_index, small_text):
        mapper = Mapper(small_index)
        for read in [small_text[10:40], "ACG", reverse_complement(small_text[55:95])]:
            res = mapper.map_read(read)
            fwd, rc = find_all_both_strands(small_text, read)
            assert res.forward.positions.tolist() == fwd
            # RC hit positions: where revcomp(read) occurs.
            assert res.reverse.positions.tolist() == rc

    def test_steps_accounting(self, small_index, small_text):
        mapper = Mapper(small_index)
        read = small_text[100:130]
        res = mapper.map_read(read)
        assert res.forward.interval.steps == 30
        assert res.steps == res.forward.interval.steps + res.reverse.interval.steps
        assert res.hardware_steps == max(
            res.forward.interval.steps, res.reverse.interval.steps
        )

    def test_locate_false_gives_no_positions(self, small_index, small_text):
        mapper = Mapper(small_index, locate=False)
        res = mapper.map_read(small_text[0:30])
        assert res.forward.positions is None
        assert res.forward.count >= 1

    def test_locate_requires_structure(self, small_text):
        index, _ = build_index(small_text, locate="none", sf=8)
        with pytest.raises(ValueError, match="locate"):
            Mapper(index, locate=True)


class TestMapReads:
    def test_batch_equals_scalar(self, small_index, small_text):
        mapper = Mapper(small_index)
        reads = [small_text[i : i + 30] for i in range(0, 600, 77)]
        reads += [reverse_complement(r) for r in reads[:3]]
        reads += ["ACGT" * 10]
        batch = mapper.map_reads(reads, batch=True)
        scalar = mapper.map_reads(reads, batch=False)
        for a, b in zip(batch, scalar):
            assert a.forward.interval == b.forward.interval
            assert a.reverse.interval == b.reverse.interval
            assert a.forward.positions.tolist() == b.forward.positions.tolist()

    def test_names_assigned(self, small_index, small_text):
        mapper = Mapper(small_index)
        reads = [small_text[0:20], small_text[20:40]]
        named = mapper.map_reads(reads, names=["x", "y"])
        assert [r.read_name for r in named] == ["x", "y"]
        auto = mapper.map_reads(reads)
        assert [r.read_name for r in auto] == ["read0", "read1"]

    def test_names_length_mismatch(self, small_index, small_text):
        mapper = Mapper(small_index)
        with pytest.raises(ValueError, match="names"):
            mapper.map_reads([small_text[:10]], names=["a", "b"])

    def test_mapping_ratio(self, small_index, small_text):
        mapper = Mapper(small_index)
        reads = [small_text[0:30], small_text[50:80], "ACGT" * 10]
        results = mapper.map_reads(reads)
        assert mapping_ratio(results) == pytest.approx(2 / 3)
        assert mapping_ratio([]) == 0.0

    def test_count_occurrences_both_strands(self, small_index, small_text):
        mapper = Mapper(small_index)
        read = small_text[10:30]
        fwd, rc = find_all_both_strands(small_text, read)
        assert mapper.count_occurrences(read) == len(fwd) + len(rc)


class TestOutputs:
    def test_hits_tsv(self, small_index, small_text):
        mapper = Mapper(small_index)
        results = mapper.map_reads([small_text[0:30], "ACGT" * 10])
        buf = io.StringIO()
        rows = write_hits_tsv(results, buf)
        lines = buf.getvalue().splitlines()
        assert rows == 2
        assert lines[0].startswith("read\t")
        assert "\t0\t" in lines[2] or lines[2].endswith(".\t.")

    def test_sam_lines(self, small_index, small_text):
        mapper = Mapper(small_index)
        reads = [small_text[100:130], "ACGT" * 10]
        results = mapper.map_reads(reads)
        buf = io.StringIO()
        write_sam_single(
            results, reads, buf, reference_name="chr", reference_length=len(small_text)
        )
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("@HD")
        assert any("\t0\tchr\t101\t" in ln for ln in lines)  # 1-based POS
        assert any("\t4\t*" in ln for ln in lines)  # unmapped record
        # CIGAR is full-length match.
        assert any("\t30M\t" in ln for ln in lines)
