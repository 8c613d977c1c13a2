"""Unit tests for the index build pipeline."""

import numpy as np
import pytest

from repro.check.oracles import oracle_index
from repro.core.bwt_structure import BWTStructure
from repro.index.builder import build_index, encode_existing_bwt
from repro.index.occ_table import OccTable
from repro.sequence.alphabet import encode
from repro.sequence.bwt import bwt_from_string
from repro.sequence.sampled_sa import FullSA, SampledSA
from repro.sequence.suffix_array import suffix_array


class TestBuildIndex:
    def test_default_build(self, small_text):
        index, report = build_index(small_text, sf=8)
        assert isinstance(index.backend, BWTStructure)
        assert isinstance(index.locate_structure, FullSA)
        assert report.text_length == len(small_text)

    def test_occ_backend(self, small_text):
        index, report = build_index(small_text, backend="occ")
        assert isinstance(index.backend, OccTable)
        assert report.backend == "occ"

    def test_sampled_locate(self, small_text):
        index, _ = build_index(small_text, locate="sampled", sa_sample_rate=8, sf=8)
        assert isinstance(index.locate_structure, SampledSA)

    def test_no_locate(self, small_text):
        index, _ = build_index(small_text, locate="none", sf=8)
        assert index.locate_structure is None

    def test_rejects_unknown_backend(self, small_text):
        with pytest.raises(ValueError, match="backend"):
            build_index(small_text, backend="gpu")

    def test_rejects_unknown_locate(self, small_text):
        with pytest.raises(ValueError, match="locate"):
            build_index(small_text, locate="hologram")

    def test_accepts_code_array(self, small_text):
        a, _ = build_index(small_text, sf=8)
        b, _ = build_index(encode(small_text), sf=8)
        assert a.count("ACG") == b.count("ACG")

    def test_suffix_array_matches_oracle(self, small_text):
        index, _ = build_index(small_text[:300], sf=8)
        sa = suffix_array(encode(small_text[:300]))
        assert index.locate_structure.sa.tolist() == sa.tolist()
        assert index.count(small_text[10:20]) >= 1

    def test_sentinel_in_tree_variant(self, small_text):
        """The five-symbol tree (built only by the oracle pipeline) and
        the builder's four-symbol tree count alike."""
        index = oracle_index(small_text, store_sentinel_in_tree=True, sf=8)
        ref, _ = build_index(small_text, sf=8)
        for pat in ["ACG", small_text[40:70]]:
            assert index.count(pat) == ref.count(pat)


class TestBuildReport:
    def test_stage_times_positive(self, small_text):
        _, report = build_index(small_text, sf=8)
        assert report.sa_bwt_seconds > 0
        assert report.encode_seconds > 0

    def test_compression_metrics(self, small_text):
        _, report = build_index(small_text, b=15, sf=100)
        assert report.uncompressed_bytes == len(small_text) + 1
        assert report.compression_ratio > 0
        assert report.space_saving_percent == pytest.approx(
            100 * (1 - report.compression_ratio)
        )

    def test_entropy_recorded(self, small_text):
        _, report = build_index(small_text, sf=8)
        assert 0 < report.bwt_entropy0 <= 2.0

    def test_run_stats_recorded(self, repetitive_text):
        _, report = build_index(repetitive_text, sf=8)
        assert report.bwt_runs["mean_run"] > 1.5


class TestEncodeExistingBwt:
    def test_matches_full_build(self, small_text):
        bwt = bwt_from_string(small_text)
        struct, seconds = encode_existing_bwt(bwt, b=15, sf=8)
        assert seconds > 0
        index, _ = build_index(small_text, b=15, sf=8)
        assert struct.size_in_bytes() == index.backend.size_in_bytes()

    def test_isolates_encoding_time(self, small_text):
        bwt = bwt_from_string(small_text)
        _, t1 = encode_existing_bwt(bwt, b=15, sf=50)
        # Re-encoding must not redo suffix sorting; just sanity that it
        # completes fast and returns a queryable structure.
        struct, _ = encode_existing_bwt(bwt, b=15, sf=50)
        assert struct.occ(0, bwt.length) == int(
            np.count_nonzero(bwt.symbols_without_sentinel() == 0)
        )
