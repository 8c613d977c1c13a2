"""Unit and cross-validation tests for the suffix-array oracles (SA-IS
and the naive sort) and the index builder's suffix sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.builder import build_index
from repro.sequence.alphabet import encode
from repro.sequence.suffix_array import (
    lcp_array,
    naive_suffix_array,
    rank_array,
    suffix_array,
    verify_suffix_array,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=120)


class TestBasics:
    def test_empty_text(self):
        sa = suffix_array(np.zeros(0, dtype=np.int64))
        assert sa.tolist() == [0]

    def test_single_char(self):
        sa = suffix_array(encode("A"))
        assert sa.tolist() == [1, 0]  # "$" < "A$"

    def test_known_example(self):
        # banana-style check on DNA: T = "ACAACG"; suffixes of "ACAACG$".
        sa = suffix_array(encode("ACAACG"))
        suffixes = sorted(range(7), key=lambda i: ("ACAACG$"[i:]).replace("$", "\0"))
        assert sa.tolist() == suffixes

    def test_sentinel_first(self):
        for build in [naive_suffix_array, suffix_array]:
            sa = build(encode("GATTACA"))
            assert sa[0] == 7  # the sentinel suffix is smallest

    def test_rejects_negative_codes(self):
        with pytest.raises(ValueError, match="non-negative"):
            suffix_array(np.array([-1]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            suffix_array(np.zeros((2, 2), dtype=np.int64))


def builder_suffix_array(codes: np.ndarray) -> np.ndarray:
    """The SA the index builder's stages sort (a full-locate index keeps it)."""
    index, _ = build_index(codes, locate="full")
    return index.locate_structure.sa.astype(np.int64)


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(5))
    def test_three_builders_agree_random(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, 150)
        a = naive_suffix_array(codes)
        b = suffix_array(codes)
        c = builder_suffix_array(codes)
        assert np.array_equal(a, b)
        assert np.array_equal(b, c)

    def test_agree_on_repetitive(self):
        codes = encode("ACGT" * 50 + "AAAA" * 25)
        assert np.array_equal(builder_suffix_array(codes), suffix_array(codes))

    def test_agree_on_constant(self):
        codes = encode("A" * 100)
        a = builder_suffix_array(codes)
        b = suffix_array(codes)
        assert np.array_equal(a, b)
        # For A^n$, suffixes sort by decreasing start: $, A$, AA$, ...
        assert a.tolist() == list(range(100, -1, -1))

    @given(text=dna)
    @settings(max_examples=50, deadline=None)
    def test_property_builder_equals_naive(self, text):
        codes = encode(text)
        assert np.array_equal(builder_suffix_array(codes), naive_suffix_array(codes))

    @given(text=dna)
    @settings(max_examples=50, deadline=None)
    def test_property_sais_equals_naive(self, text):
        codes = encode(text)
        assert np.array_equal(suffix_array(codes), naive_suffix_array(codes))


class TestVerify:
    def test_accepts_correct(self):
        codes = encode("GATTACAGATTACA")
        assert verify_suffix_array(codes, suffix_array(codes))

    def test_rejects_swapped(self):
        codes = encode("GATTACA")
        sa = suffix_array(codes)
        sa[2], sa[3] = sa[3], sa[2]
        assert not verify_suffix_array(codes, sa)

    def test_rejects_non_permutation(self):
        codes = encode("ACGT")
        assert not verify_suffix_array(codes, np.zeros(5, dtype=np.int64))

    def test_rejects_wrong_length(self):
        codes = encode("ACGT")
        assert not verify_suffix_array(codes, np.arange(4))

    def test_sampled_mode(self):
        codes = encode("ACGT" * 100)
        sa = suffix_array(codes)
        assert verify_suffix_array(codes, sa, sample=50)


class TestDerivedArrays:
    def test_rank_is_inverse(self):
        codes = encode("ACGTACGTTTAA")
        sa = suffix_array(codes)
        rank = rank_array(sa)
        assert np.array_equal(rank[sa], np.arange(sa.size))

    def test_lcp_values(self):
        codes = encode("AAAA")
        sa = suffix_array(codes)  # $, A$, AA$, AAA$, AAAA$
        lcp = lcp_array(codes, sa)
        assert lcp.tolist() == [0, 0, 1, 2, 3]

    def test_lcp_against_bruteforce(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, 80)
        sa = suffix_array(codes)
        lcp = lcp_array(codes, sa)
        s = "".join("ACGT"[c] for c in codes) + "$"
        for i in range(1, sa.size):
            a, b = s[sa[i - 1]:], s[sa[i]:]
            common = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                common += 1
            assert lcp[i] == common


class TestSAISInternals:
    def test_sais_direct_call(self):
        # "mississippi"-like over ints (the sentinel is appended).
        codes = np.array([1, 0, 2, 2, 0, 2, 2, 0, 1, 1, 0])
        s = [*(codes + 1).tolist(), 0]
        expected = sorted(range(len(s)), key=lambda i: s[i:])
        assert suffix_array(codes).tolist() == expected

    def test_sais_two_chars(self):
        assert suffix_array(np.array([0])).tolist() == [1, 0]

    def test_sais_single(self):
        assert suffix_array(np.zeros(0, dtype=np.int64)).tolist() == [0]


class TestNumpySAISEquivalence:
    """The vectorized SA-IS path against the naive sort."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_legacy(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, int(rng.integers(1, 800))).astype(np.uint8)
        got = suffix_array(codes)
        assert got.tolist() == naive_suffix_array(codes).tolist()

    @pytest.mark.parametrize("text", [
        "A",
        "AAAAAAAAAA",
        "ACACACACACAC",
        "ACGTACGTACGT",
        "AACCGGTTAACCGGTT" * 8,
        "ACGT" * 100 + "A",
        "GATTACA" * 40,
    ])
    def test_periodic_matches_legacy(self, text):
        codes = encode(text)
        got = suffix_array(codes)
        assert got.tolist() == naive_suffix_array(codes).tolist()
        assert verify_suffix_array(codes, got)

    def test_deep_recursion_case(self):
        # Thue-Morse-like string: forces LMS-name collisions and deep
        # recursion.
        t = [0]
        for _ in range(9):
            t = t + [1 - x for x in t]
        codes = np.array([c + 1 for c in t], dtype=np.uint8)  # values 1,2
        got = suffix_array(codes)
        assert got.tolist() == naive_suffix_array(codes).tolist()
