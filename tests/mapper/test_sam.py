"""Unit tests for the SAM writer (single and multi-reference)."""

import io

import numpy as np
import pytest

from repro import build_index
from repro.index.multiref import MultiReferenceIndex
from repro.mapper.mapper import Mapper
from repro.mapper.sam import (
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    write_sam_multiref,
    write_sam_single,
)
from repro.sequence.alphabet import reverse_complement


def make_seq(n, seed):
    rng = np.random.default_rng(seed)
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


@pytest.fixture(scope="module")
def single_setup():
    ref = make_seq(2000, 151)
    index, _ = build_index(ref, sf=8)
    return ref, index


def parse_sam(text):
    header = [l for l in text.splitlines() if l.startswith("@")]
    records = [l.split("\t") for l in text.splitlines() if l and not l.startswith("@")]
    return header, records


class TestSingleEnd:
    def test_header_and_records(self, single_setup):
        ref, index = single_setup
        reads = [ref[100:150], reverse_complement(ref[300:350]), "ACGT" * 12]
        results = Mapper(index).map_reads(reads)
        buf = io.StringIO()
        n = write_sam_single(results, reads, buf, "chr", len(ref))
        header, records = parse_sam(buf.getvalue())
        assert any(l.startswith("@SQ") and f"LN:{len(ref)}" in l for l in header)
        assert n == len(records) == 3
        by_name = {r[0]: r for r in records}
        fwd = by_name["read0"]
        assert int(fwd[1]) == 0 and int(fwd[3]) == 101 and fwd[5] == "50M"
        rev = by_name["read1"]
        assert int(rev[1]) & FLAG_REVERSE
        assert int(rev[3]) == 301
        unmapped = by_name["read2"]
        assert int(unmapped[1]) & FLAG_UNMAPPED
        assert unmapped[2] == "*"

    def test_nh_tag_counts_hits(self, single_setup):
        ref, index = single_setup
        # A read with one hit on each strand would have NH 2; use a repeat.
        double_ref = ref[:500] + ref[:500]
        idx2, _ = build_index(double_ref, sf=8)
        read = double_ref[10:60]
        results = Mapper(idx2).map_reads([read])
        buf = io.StringIO()
        write_sam_single(results, [read], buf, "chr", len(double_ref))
        _, records = parse_sam(buf.getvalue())
        assert len(records) == 2  # two occurrences, two lines
        assert all("NH:i:2" in "\t".join(r) for r in records)


class TestMultiRef:
    def test_rname_per_sequence(self):
        refs = [("chrA", make_seq(800, 152)), ("chrB", make_seq(600, 153))]
        index = MultiReferenceIndex(refs, sf=8)
        reads = [refs[0][1][50:100], refs[1][1][200:250], "ACGT" * 12]
        buf = io.StringIO()
        n = write_sam_multiref(index, reads, buf)
        header, records = parse_sam(buf.getvalue())
        assert sum(1 for l in header if l.startswith("@SQ")) == 2
        by_name = {r[0]: r for r in records}
        assert by_name["read0"][2] == "chrA" and int(by_name["read0"][3]) == 51
        assert by_name["read1"][2] == "chrB" and int(by_name["read1"][3]) == 201
        assert int(by_name["read2"][1]) & FLAG_UNMAPPED

    def test_custom_names(self):
        refs = [("c", make_seq(500, 154))]
        index = MultiReferenceIndex(refs, sf=8)
        buf = io.StringIO()
        write_sam_multiref(index, [refs[0][1][:40]], buf, read_names=["myread"])
        _, records = parse_sam(buf.getvalue())
        assert records[0][0] == "myread"


class TestProfiling:
    def test_hot_path_is_numpy_not_python(self, single_setup):
        """Guide compliance: the batched mapper's time must not be
        dominated by pure-Python combinadic/scalar rank code."""
        import cProfile
        import pstats
        import time

        from repro.mapper.batch import run_mapping_batch

        ref, index = single_setup
        index.backend.build_batch_cache()
        reads = [ref[i : i + 60] for i in range(0, 1500, 7)]
        profiler = cProfile.Profile()
        t0 = time.perf_counter()
        profiler.runcall(run_mapping_batch, index, reads, keep_results=False)
        wall = time.perf_counter() - t0
        # Self time of the scalar ``rank1`` path, not the ``_many`` kernels.
        scalar_rank = sum(
            self_seconds
            for (_, _, name), (_, _, self_seconds, _, _) in pstats.Stats(profiler).stats.items()
            if name == "rank1"
        )
        assert scalar_rank < wall * 0.2
