"""Unit tests for batched mapping runs."""

import pytest

from repro.mapper.batch import run_mapping_batch


class TestRunMappingBatch:
    def test_reports_fields(self, small_index, small_text):
        reads = [small_text[i : i + 30] for i in range(0, 300, 31)]
        report = run_mapping_batch(small_index, reads)
        assert report.n_reads == len(reads)
        assert report.read_length == 30
        assert report.wall_seconds > 0
        assert report.mapping_ratio == 1.0
        assert report.total_bs_steps > 0
        assert report.reads_per_second > 0

    def test_mixed_mapping_ratio(self, small_index, small_text):
        reads = [small_text[0:30], "ACGT" * 10]
        report = run_mapping_batch(small_index, reads)
        assert report.mapping_ratio == pytest.approx(0.5)

    def test_keep_results_flag(self, small_index, small_text):
        reads = [small_text[0:20]]
        with_results = run_mapping_batch(small_index, reads, keep_results=True)
        without = run_mapping_batch(small_index, reads, keep_results=False)
        assert len(with_results.results) == 1
        assert without.results == []

    def test_op_counts_scale_with_reads(self, small_index, small_text):
        one = run_mapping_batch(small_index, [small_text[0:40]])
        four = run_mapping_batch(small_index, [small_text[i : i + 40] for i in range(4)])
        assert four.total_bs_steps > one.total_bs_steps

    def test_empty_reads(self, small_index):
        report = run_mapping_batch(small_index, [])
        assert report.n_reads == 0
        assert report.mapping_ratio == 0.0

    def test_unbatched_mode(self, small_index, small_text):
        reads = [small_text[0:25], small_text[100:125]]
        a = run_mapping_batch(small_index, reads, batch=True)
        b = run_mapping_batch(small_index, reads, batch=False)
        assert a.mapping_ratio == b.mapping_ratio
        assert a.total_bs_steps == b.total_bs_steps

