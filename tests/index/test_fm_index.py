"""Unit tests for FM-index backward search (Eq. 4-5)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_index
from repro.baseline.naive import find_all
from repro.core.counters import CounterScope


def oracle_positions(text, pattern):
    return find_all(text, pattern)


class TestSearch:
    def test_empty_pattern_matches_everywhere(self, small_index, small_text):
        # DESIGN.md 9: [1, n_rows), i.e. every rotation except the
        # sentinel row; count equals the text length and locate never
        # reports position len(text).
        res = small_index.search("")
        assert res.start == 1 and res.end == len(small_text) + 1
        assert small_index.count("") == len(small_text)
        assert sorted(small_index.locate("").tolist()) == list(
            range(len(small_text))
        )

    def test_count_matches_regex(self, small_index, small_text):
        for pat in ["A", "ACG", "TTT", "GGGG", small_text[100:140]]:
            expected = len(re.findall(f"(?={pat})", small_text))
            assert small_index.count(pat) == expected, pat

    def test_absent_pattern(self, small_index, small_text):
        # 40 random bases almost surely absent from 2 kbp; verify first.
        pat = "ACGT" * 10
        assert pat not in small_text
        res = small_index.search(pat)
        assert not res.found
        assert res.count == 0

    def test_early_termination_steps(self, small_index, small_text):
        # A pattern absent from its first consumed (rightmost) symbols on
        # must stop before consuming the whole pattern.
        pat = "A" * 60
        assert pat not in small_text
        res = small_index.search(pat)
        assert res.steps < 60

    def test_full_pattern_steps(self, small_index, small_text):
        pat = small_text[50:80]
        res = small_index.search(pat)
        assert res.found
        assert res.steps == 30

    def test_pattern_as_codes(self, small_index, small_text):
        from repro.sequence.alphabet import encode

        pat = small_text[10:25]
        assert small_index.count(encode(pat)) == small_index.count(pat)

    def test_rejects_bad_codes(self, small_index):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            small_index.search(np.array([0, 7]))

    def test_single_char_counts(self, small_index, small_text):
        for ch in "ACGT":
            assert small_index.count(ch) == small_text.count(ch)

    def test_whole_text_matches_once(self, small_index, small_text):
        assert small_index.count(small_text) == 1


class TestLocate:
    def test_locate_matches_oracle(self, small_index, small_text):
        for pat in ["ACG", "TT", small_text[500:520], small_text[-30:]]:
            got = small_index.locate(pat).tolist()
            assert got == oracle_positions(small_text, pat), pat

    def test_locate_absent(self, small_index, small_text):
        assert small_index.locate("ACGT" * 12).size == 0

    def test_locate_sorted(self, small_index):
        pos = small_index.locate("AC")
        assert np.all(np.diff(pos) > 0)

    def test_locate_without_structure(self, small_text):
        index, _ = build_index(small_text, locate="none", sf=8)
        with pytest.raises(RuntimeError, match="without a locate structure"):
            index.locate("ACG")

    def test_locate_with_sampled_sa(self, small_text):
        index, _ = build_index(small_text, locate="sampled", sa_sample_rate=16, sf=8)
        for pat in ["ACG", small_text[100:120]]:
            assert index.locate(pat).tolist() == oracle_positions(small_text, pat)


class TestBatch:
    def test_batch_equals_scalar(self, small_index, small_text):
        patterns = [
            small_text[i : i + 25] for i in range(0, 800, 61)
        ] + ["ACGT" * 10, "", "T", small_text[3:80]]
        lo, hi, steps = small_index.search_batch(patterns)
        for i, p in enumerate(patterns):
            res = small_index.search(p)
            assert (lo[i], hi[i]) == (res.start, res.end), p
            assert steps[i] == res.steps, p

    def test_batch_mixed_lengths(self, small_index, small_text):
        patterns = [small_text[0:5], small_text[0:50], "A"]
        counts = small_index.count_batch(patterns)
        expected = [small_index.count(p) for p in patterns]
        assert counts.tolist() == expected

    def test_batch_empty_list(self, small_index):
        lo, hi, steps = small_index.search_batch([])
        assert lo.size == hi.size == steps.size == 0

    def test_batch_counters(self, small_index, small_text):
        with CounterScope() as scope:
            small_index.search_batch([small_text[0:10], small_text[5:15]])
        assert scope.delta["queries"] == 2
        assert scope.delta["bs_steps"] == 20


class TestBackendAgreement:
    @given(start=st.integers(0, 1900), length=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_occ_backend_same_counts(self, small_index, occ_index, small_text, start, length):
        pat = small_text[start : start + length]
        assert small_index.count(pat) == occ_index.count(pat)

    def test_occ_backend_same_intervals(self, small_index, occ_index, small_text):
        # Both index the same BWT matrix, so intervals must coincide too.
        for pat in ["ACG", "T", small_text[77:120]]:
            a = small_index.search(pat)
            b = occ_index.search(pat)
            assert (a.start, a.end) == (b.start, b.end)


class TestSizes:
    def test_size_excludes_locate_by_default(self, small_index):
        assert small_index.size_in_bytes() < small_index.size_in_bytes(include_locate=True)
