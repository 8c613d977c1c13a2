"""Unit tests for the composed BWaveR structure (WT-of-RRR over BWT)."""

import numpy as np
import pytest

from repro.core.bwt_structure import BWTStructure
from repro.sequence.alphabet import encode
from repro.sequence.bwt import bwt_from_string


def occ_oracle(bwt, symbol, i):
    """Count `symbol` in BWT[0:i], skipping the sentinel slot."""
    count = 0
    for j in range(i):
        if j == bwt.dollar_pos:
            continue
        if int(bwt.codes[j]) == symbol:
            count += 1
    return count


@pytest.fixture(scope="module")
def text():
    rng = np.random.default_rng(17)
    return "".join("ACGT"[c] for c in rng.integers(0, 4, 400))


@pytest.fixture(scope="module")
def bwt(text):
    return bwt_from_string(text)


@pytest.fixture(scope="module")
def structure(bwt):
    return BWTStructure(bwt, b=8, sf=4)


class TestOcc:
    def test_occ_matches_oracle(self, bwt, structure):
        for symbol in range(4):
            for i in range(0, bwt.length + 1, 7):
                assert structure.occ(symbol, i) == occ_oracle(bwt, symbol, i), (symbol, i)

    def test_occ_around_sentinel(self, bwt, structure):
        d = bwt.dollar_pos
        for symbol in range(4):
            for i in [max(0, d - 1), d, d + 1, min(bwt.length, d + 2)]:
                assert structure.occ(symbol, i) == occ_oracle(bwt, symbol, i)

    def test_occ_bounds(self, structure):
        with pytest.raises(IndexError):
            structure.occ(0, structure.n_rows + 1)
        with pytest.raises(ValueError, match="symbol"):
            structure.occ(4, 0)

    def test_occ_many_matches_scalar(self, bwt, structure):
        positions = np.arange(bwt.length + 1)
        for symbol in range(4):
            expected = np.array([structure.occ(symbol, int(i)) for i in positions])
            assert np.array_equal(structure.occ_many(symbol, positions), expected)


class TestSentinelVariant:
    def test_in_tree_variant_same_occ(self, bwt):
        opt = BWTStructure(bwt, b=8, sf=4)
        raw = BWTStructure(bwt, b=8, sf=4, store_sentinel_in_tree=True)
        for symbol in range(4):
            for i in range(0, bwt.length + 1, 11):
                assert opt.occ(symbol, i) == raw.occ(symbol, i)

    def test_in_tree_variant_deeper(self, bwt):
        opt = BWTStructure(bwt, b=8, sf=4)
        raw = BWTStructure(bwt, b=8, sf=4, store_sentinel_in_tree=True)
        assert opt.tree.depth() == 2
        assert raw.tree.depth() == 3

    def test_in_tree_variant_larger(self, bwt):
        opt = BWTStructure(bwt, b=15, sf=10)
        raw = BWTStructure(bwt, b=15, sf=10, store_sentinel_in_tree=True)
        assert raw.size_in_bytes(include_shared=False) > opt.size_in_bytes(
            include_shared=False
        )


class TestCArray:
    def test_c_array_values(self, text, structure):
        codes = encode(text)
        counts = np.bincount(codes, minlength=4)
        # C[a] = 1 (sentinel) + symbols smaller than a.
        expected = 1
        for a in range(4):
            assert structure.count_smaller(a) == expected
            expected += int(counts[a])

    def test_c_array_total(self, text, structure):
        assert structure.C[4] == len(text) + 1


class TestAccessLF:
    def test_access_matches_bwt(self, bwt, structure):
        for i in range(bwt.length):
            expected = -1 if i == bwt.dollar_pos else int(bwt.codes[i])
            assert structure.access(i) == expected

    def test_access_bounds(self, structure):
        with pytest.raises(IndexError):
            structure.access(structure.n_rows)

    def test_lf_walk_visits_all_rows(self, bwt, structure):
        # LF is a permutation of the rows; walking n+1 steps from the
        # sentinel row must visit every row exactly once.
        seen = set()
        row = 0
        for _ in range(bwt.length):
            assert row not in seen
            seen.add(row)
            row = structure.lf(row)
        assert len(seen) == bwt.length

    def test_lf_of_sentinel_row_is_zero(self, bwt, structure):
        assert structure.lf(bwt.dollar_pos) == 0


class TestSize:
    def test_uncompressed_baseline(self, bwt, structure):
        assert structure.uncompressed_size_bytes() == bwt.length

    def test_size_includes_shared_once(self, bwt):
        s = BWTStructure(bwt, b=15, sf=50)
        delta = s.size_in_bytes(include_shared=True) - s.size_in_bytes(include_shared=False)
        assert delta >= (1 << 15) * 2
        assert delta < 2 * (1 << 15) * 2

    def test_repr_mentions_params(self, structure):
        r = repr(structure)
        assert "b=8" in r and "sf=4" in r
