"""Unit tests for the checkpointed occurrence table backend."""

import numpy as np
import pytest

from repro.core.counters import CounterScope
from repro.index.occ_table import (
    OccTable,
    count_symbol_prefix,
    pack_2bit,
    unpack_2bit,
)
from repro.sequence.bwt import bwt_from_string


def occ_oracle(bwt, symbol, i):
    count = 0
    for j in range(i):
        if j == bwt.dollar_pos:
            continue
        if int(bwt.codes[j]) == symbol:
            count += 1
    return count


@pytest.fixture(scope="module")
def bwt():
    rng = np.random.default_rng(31)
    text = "".join("ACGT"[c] for c in rng.integers(0, 4, 500))
    return bwt_from_string(text)


class TestPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for n in [0, 1, 31, 32, 33, 100]:
            codes = rng.integers(0, 4, n).astype(np.uint8)
            assert np.array_equal(unpack_2bit(pack_2bit(codes), n), codes)

    def test_word_layout(self):
        # Base 0 in bits 0-1, base 1 in bits 2-3.
        words = pack_2bit(np.array([3, 1], dtype=np.uint8))
        assert int(words[0]) == 0b0111


class TestCountSymbolPrefix:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, 32).astype(np.uint8)
        word = pack_2bit(codes)[0]
        for symbol in range(4):
            for upto in range(33):
                expected = int(np.count_nonzero(codes[:upto] == symbol))
                assert count_symbol_prefix(word, symbol, upto) == expected

    def test_zero_upto(self):
        assert count_symbol_prefix(np.uint64(0xFFFF), 3, 0) == 0


class TestOcc:
    @pytest.mark.parametrize("cw", [1, 2, 4, 8])
    def test_occ_matches_oracle(self, bwt, cw):
        table = OccTable(bwt, checkpoint_words=cw)
        for symbol in range(4):
            for i in range(0, bwt.length + 1, 17):
                assert table.occ(symbol, i) == occ_oracle(bwt, symbol, i), (cw, symbol, i)

    def test_occ_around_sentinel(self, bwt):
        table = OccTable(bwt)
        d = bwt.dollar_pos
        for symbol in range(4):
            for i in [d, d + 1]:
                assert table.occ(symbol, i) == occ_oracle(bwt, symbol, i)

    def test_occ_many_matches_scalar(self, bwt):
        table = OccTable(bwt, checkpoint_words=2)
        positions = np.arange(bwt.length + 1)
        for symbol in range(4):
            expected = np.array([table.occ(symbol, int(i)) for i in positions])
            assert np.array_equal(table.occ_many(symbol, positions), expected)

    def test_occ_bounds(self, bwt):
        table = OccTable(bwt)
        with pytest.raises(IndexError):
            table.occ(0, bwt.length + 1)
        with pytest.raises(ValueError):
            table.occ(9, 0)

    def test_rejects_bad_spacing(self, bwt):
        with pytest.raises(ValueError):
            OccTable(bwt, checkpoint_words=0)


class TestCountersAndScan:
    def test_scan_bounded_by_checkpoint_span(self, bwt):
        table = OccTable(bwt, checkpoint_words=2)
        for i in range(0, bwt.length, 19):
            with CounterScope() as scope:
                table.occ(1, i)
            assert scope.delta["occ_checkpoint_ranks"] == 1
            assert scope.delta["occ_scan_chars"] < table.d_rows

    def test_tighter_checkpoints_less_scanning(self, bwt):
        wide = OccTable(bwt, checkpoint_words=8)
        tight = OccTable(bwt, checkpoint_words=1)
        with CounterScope() as c_wide:
            for i in range(0, bwt.length, 7):
                wide.occ(2, i)
        with CounterScope() as c_tight:
            for i in range(0, bwt.length, 7):
                tight.occ(2, i)
        assert c_tight.delta["occ_scan_chars"] < c_wide.delta["occ_scan_chars"]


class TestAccessLF:
    def test_access_matches_bwt(self, bwt):
        table = OccTable(bwt)
        for i in range(bwt.length):
            expected = -1 if i == bwt.dollar_pos else int(bwt.codes[i])
            assert table.access(i) == expected

    def test_lf_is_permutation(self, bwt):
        table = OccTable(bwt)
        images = {table.lf(i) for i in range(bwt.length)}
        assert images == set(range(bwt.length))

    def test_lf_agrees_with_succinct(self, bwt):
        from repro.core.bwt_structure import BWTStructure

        table = OccTable(bwt)
        struct = BWTStructure(bwt, b=8, sf=4)
        for i in range(0, bwt.length, 11):
            assert table.lf(i) == struct.lf(i)


class TestSize:
    def test_wider_spacing_smaller(self, bwt):
        small = OccTable(bwt, checkpoint_words=1).size_in_bytes()
        large = OccTable(bwt, checkpoint_words=8).size_in_bytes()
        assert large < small
