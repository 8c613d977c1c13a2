"""Unit tests for the Waidyasooriya-style interleaved rank vector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import CounterScope
from repro.core.interleaved import InterleavedRankVector, interleaved_factory
from repro.core.wavelet_tree import WaveletTree


def cumsum_oracle(bits):
    return np.concatenate(([0], np.cumsum(bits)))


class TestConstruction:
    def test_rejects_bad_b(self):
        with pytest.raises(ValueError, match="body size"):
            InterleavedRankVector([0, 1], b=0)
        with pytest.raises(ValueError, match="body size"):
            InterleavedRankVector([0, 1], b=64)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            InterleavedRankVector([0, 2])

    def test_empty(self):
        v = InterleavedRankVector(np.zeros(0, dtype=np.uint8))
        assert len(v) == 0 and v.rank1(0) == 0 and v.count() == 0


class TestRank:
    @pytest.mark.parametrize("b", [1, 7, 32, 63])
    def test_rank_matches_oracle(self, b):
        rng = np.random.default_rng(b)
        bits = rng.integers(0, 2, 500).astype(np.uint8)
        v = InterleavedRankVector(bits, b=b)
        cum = cumsum_oracle(bits)
        for p in range(501):
            assert v.rank1(p) == cum[p], (b, p)

    def test_rank_many_matches_scalar(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 321).astype(np.uint8)
        v = InterleavedRankVector(bits, b=17)
        positions = np.arange(322)
        expected = np.array([v.rank1(int(p)) for p in positions])
        assert np.array_equal(v.rank1_many(positions), expected)

    def test_rank_bounds(self):
        v = InterleavedRankVector([1, 0, 1], b=4)
        with pytest.raises(IndexError):
            v.rank1(4)

    def test_single_codeword_fetch_counted(self):
        bits = np.ones(100, dtype=np.uint8)
        v = InterleavedRankVector(bits, b=32)
        with CounterScope() as scope:
            v.rank1(50)
        # O(1): exactly one memory fetch, no class iterations.
        assert scope.delta["superblock_reads"] == 1
        assert scope.delta["class_sum_iterations"] == 0


class TestAccessSelect:
    def test_access(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        v = InterleavedRankVector(bits, b=13)
        for i in range(200):
            assert v.access(i) == bits[i]

    def test_select1_inverts_rank(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 300).astype(np.uint8)
        v = InterleavedRankVector(bits, b=21)
        for k in range(1, v.count() + 1):
            pos = v.select1(k)
            assert bits[pos] == 1
            assert v.rank1(pos + 1) == k

    def test_select0(self):
        bits = np.array([1, 0, 0, 1, 0], dtype=np.uint8)
        v = InterleavedRankVector(bits, b=3)
        assert [v.select0(k) for k in (1, 2, 3)] == [1, 2, 4]

    def test_select_bounds(self):
        v = InterleavedRankVector([1, 0], b=2)
        with pytest.raises(IndexError):
            v.select1(2)
        with pytest.raises(IndexError):
            v.select0(2)


class TestSpace:
    def test_overhead_formula(self):
        bits = np.zeros(10_000, dtype=np.uint8)
        v = InterleavedRankVector(bits, b=56)
        # header = ceil(log2(10000+)) = 14 bits -> 25% at b=56.
        assert v.overhead_fraction() == pytest.approx(v.header_bits / 56)
        measured = v.size_in_bytes() * 8 / 10_000 - 1.0
        assert measured == pytest.approx(v.overhead_fraction(), rel=0.1)

    def test_no_compression_unlike_rrr(self):
        """Interleaved size is entropy-independent; RRR's is not."""
        from repro.core.rrr import RRRVector

        rng = np.random.default_rng(3)
        n = 20_000
        sparse = (rng.random(n) < 0.02).astype(np.uint8)
        dense = rng.integers(0, 2, n).astype(np.uint8)
        i_sparse = InterleavedRankVector(sparse, b=32).size_in_bytes()
        i_dense = InterleavedRankVector(dense, b=32).size_in_bytes()
        assert i_sparse == i_dense  # verbatim body: no entropy adaptation
        r_sparse = RRRVector(sparse, b=15, sf=50).size_in_bytes()
        assert r_sparse < i_sparse  # RRR compresses the sparse vector


class TestWaveletIntegration:
    def test_wavelet_tree_over_interleaved_nodes(self):
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 4, 400)
        wt = WaveletTree(codes, sigma=4, bitvector_factory=interleaved_factory(b=32))
        for s in range(4):
            for p in range(0, 401, 13):
                assert wt.rank(s, p) == int(np.count_nonzero(codes[:p] == s))

    def test_fm_index_over_interleaved(self):
        from repro.core.bwt_structure import BWTStructure
        from repro.index.fm_index import FMIndex
        from repro.sequence.bwt import bwt_from_string

        rng = np.random.default_rng(5)
        text = "".join("ACGT"[c] for c in rng.integers(0, 4, 600))
        struct = BWTStructure(
            bwt_from_string(text), bitvector_factory=interleaved_factory(b=32)
        )
        index = FMIndex(struct, locate_structure=None)
        import re

        for pat in [text[100:130], "ACG", "TTTT"]:
            assert index.count(pat) == len(re.findall(f"(?={pat})", text))


@given(bits=st.lists(st.integers(0, 1), max_size=250), b=st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_property_interleaved_rank(bits, b):
    arr = np.array(bits, dtype=np.uint8)
    v = InterleavedRankVector(arr, b=b)
    cum = cumsum_oracle(arr)
    for p in range(0, len(bits) + 1, max(1, len(bits) // 11 or 1)):
        assert v.rank1(p) == cum[p]
