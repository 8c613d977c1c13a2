"""Unit tests for the balanced wavelet tree."""

import numpy as np
import pytest

from repro.core.bitvector import BitVector
from repro.core.counters import CounterScope
from repro.core.wavelet_tree import (
    WaveletTree,
    plain_bitvector_factory,
    wavelet_tree_from_string,
)


def count_oracle(codes, symbol, p):
    return int(np.count_nonzero(np.asarray(codes[:p]) == symbol))


class TestConstruction:
    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            WaveletTree(np.zeros((2, 2), dtype=np.int64))

    def test_rejects_negative_codes(self):
        with pytest.raises(ValueError, match="non-negative"):
            WaveletTree([-1, 0])

    def test_rejects_code_out_of_alphabet(self):
        with pytest.raises(ValueError, match="out of alphabet"):
            WaveletTree([0, 5], sigma=4)

    def test_rejects_sigma_one(self):
        with pytest.raises(ValueError, match=">= 2"):
            WaveletTree([0, 0], sigma=1)

    def test_sigma_inferred(self):
        wt = WaveletTree([0, 3, 1])
        assert wt.sigma == 4

    def test_dna_tree_shape(self):
        wt = WaveletTree([0, 1, 2, 3] * 10, sigma=4, b=4, sf=2)
        assert wt.depth() == 2
        assert len(wt.nodes()) == 3  # root + two children

    def test_power_of_two_alphabets(self):
        for sigma in [2, 4, 8, 16]:
            codes = np.arange(sigma).repeat(3)
            wt = WaveletTree(codes, sigma=sigma, b=4, sf=2)
            assert wt.depth() == int(np.log2(sigma))

    def test_non_power_of_two_alphabet(self):
        codes = np.array([0, 1, 2, 0, 2, 1, 2])
        wt = WaveletTree(codes, sigma=3, b=3, sf=2)
        for s in range(3):
            for p in range(8):
                assert wt.rank(s, p) == count_oracle(codes, s, p)

    def test_node_struct_fields(self):
        # The paper's five-field node: bits, two children, two alphabets.
        wt = WaveletTree([0, 1, 2, 3], sigma=4, b=4, sf=2)
        root = wt.root
        assert root.alphabet0 == (0, 1)
        assert root.alphabet1 == (2, 3)
        assert root.child0 is not None and root.child1 is not None
        assert root.child0.alphabet0 == (0,)


class TestRank:
    def test_rank_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 500)
        wt = WaveletTree(codes, sigma=4, b=8, sf=3)
        for s in range(4):
            for p in range(0, 501, 11):
                assert wt.rank(s, p) == count_oracle(codes, s, p)

    def test_rank_full_length_equals_counts(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, 300)
        wt = WaveletTree(codes, sigma=4, b=4, sf=2)
        counts = wt.symbol_counts()
        expected = np.bincount(codes, minlength=4)
        assert np.array_equal(counts, expected)

    def test_rank_bounds(self):
        wt = WaveletTree([0, 1], sigma=2, b=2, sf=1)
        with pytest.raises(IndexError):
            wt.rank(0, 3)
        with pytest.raises(ValueError, match="alphabet"):
            wt.rank(5, 0)

    def test_rank_many_matches_scalar(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 4, 400)
        wt = WaveletTree(codes, sigma=4, b=15, sf=4)
        positions = np.arange(401)
        for s in range(4):
            expected = np.array([wt.rank(s, int(p)) for p in positions])
            assert np.array_equal(wt.rank_many(s, positions), expected)

    def test_counters_charged(self):
        codes = np.array([0, 1, 2, 3] * 5)
        wt = WaveletTree(codes, sigma=4, b=4, sf=2)
        with CounterScope() as scope:
            wt.rank(2, 10)
        assert scope.delta["wt_ranks"] == 1
        # DNA tree: at most log2(4) = 2 binary ranks per symbol rank
        # (early-exit at zero may save the second).
        assert 1 <= scope.delta["binary_ranks"] <= 2


class TestAccessSelect:
    def test_access_reconstructs(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 8, 200)
        wt = WaveletTree(codes, sigma=8, b=5, sf=2)
        assert np.array_equal(wt.to_codes(), codes)

    def test_access_bounds(self):
        wt = WaveletTree([0, 1], sigma=2, b=2, sf=1)
        with pytest.raises(IndexError):
            wt.access(2)

    def test_select_inverts_rank(self):
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 4, 150)
        wt = WaveletTree(codes, sigma=4, b=4, sf=2)
        for s in range(4):
            total = int(np.count_nonzero(codes == s))
            for k in [1, total // 2, total]:
                if k < 1:
                    continue
                pos = wt.select(s, k)
                assert codes[pos] == s
                assert wt.rank(s, pos + 1) == k

    def test_select_out_of_range(self):
        wt = WaveletTree([0, 0, 1], sigma=2, b=2, sf=1)
        with pytest.raises(IndexError):
            wt.select(1, 2)


class TestFactories:
    def test_plain_bitvector_nodes(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 4, 300)
        wt = WaveletTree(codes, sigma=4, bitvector_factory=plain_bitvector_factory)
        assert isinstance(wt.root.bits, BitVector)
        for s in range(4):
            for p in range(0, 301, 17):
                assert wt.rank(s, p) == count_oracle(codes, s, p)

    def test_from_string(self):
        wt, mapping = wavelet_tree_from_string("ACGTACGT", b=4, sf=2)
        assert mapping == {"A": 0, "C": 1, "G": 2, "T": 3}
        assert wt.rank(mapping["G"], 8) == 2

    def test_from_string_rejects_unknown(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            wavelet_tree_from_string("ACGX", alphabet="ACGT")


class TestSize:
    def test_shared_table_counted_once(self):
        rng = np.random.default_rng(6)
        codes = rng.integers(0, 4, 1000)
        wt = WaveletTree(codes, sigma=4, b=15, sf=50)
        without = wt.size_in_bytes(include_shared=False)
        with_shared = wt.size_in_bytes(include_shared=True)
        table = (1 << 15) * 2  # permutations dominate
        # Exactly one table copy, not one per node (3 nodes).
        assert with_shared - without >= table
        assert with_shared - without < 2 * table
