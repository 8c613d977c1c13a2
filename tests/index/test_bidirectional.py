"""Unit tests for the bidirectional FM-index (2BWT-style)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.naive import find_with_mismatches
from repro.core.counters import CounterScope
from repro.index.bidirectional import BidirectionalFMIndex
from repro.sequence.alphabet import encode


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(141)
    text = "".join("ACGT"[c] for c in rng.integers(0, 4, 900))
    return text, BidirectionalFMIndex(text, sf=4)


class TestSynchronizedIntervals:
    def test_widths_match(self, setup):
        text, bi = setup
        iv = bi.whole()
        for a in encode(text[100:115])[::-1]:
            iv = bi.extend_left(iv, int(a))
            assert iv.hi - iv.lo == iv.hi_r - iv.lo_r

    def test_reverse_interval_is_reverse_pattern(self, setup):
        """The reverse interval must equal the plain search of the
        reversed pattern on the reversed text — the defining invariant."""
        text, bi = setup
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = int(rng.integers(0, len(text) - 20))
            pat = text[s : s + 20]
            iv = bi.search(pat)
            rev_iv = bi.rev.search(pat[::-1])
            assert (iv.lo_r, iv.hi_r) == (rev_iv.start, rev_iv.end), pat

    def test_extend_right_matches_appended_search(self, setup):
        # Empty intervals carry arbitrary coordinates; only non-empty
        # intervals (and emptiness itself) are pinned by the invariant.
        text, bi = setup
        pat = text[300:315]
        iv = bi.search(pat)
        for a in range(4):
            grown = bi.extend_right(iv, a)
            direct = bi.search(pat + "ACGT"[a])
            assert grown.count == direct.count, a
            if direct.count:
                assert (grown.lo, grown.hi) == (direct.lo, direct.hi), a

    def test_extend_left_matches_prepended_search(self, setup):
        text, bi = setup
        pat = text[400:415]
        iv = bi.search(pat)
        for a in range(4):
            grown = bi.extend_left(iv, a)
            direct = bi.search("ACGT"[a] + pat)
            assert grown.count == direct.count, a
            if direct.count:
                assert (grown.lo, grown.hi) == (direct.lo, direct.hi), a

    def test_empty_interval_stays_empty(self, setup):
        _, bi = setup
        iv = bi.search("ACGT" * 12)
        assert iv.empty
        assert bi.extend_left(iv, 0).empty
        assert bi.extend_right(iv, 0).empty

    def test_symbol_bounds(self, setup):
        _, bi = setup
        with pytest.raises(ValueError):
            bi.extend_left(bi.whole(), 4)
        with pytest.raises(ValueError):
            bi.extend_right(bi.whole(), -1)


class TestSearch:
    def test_search_matches_regex(self, setup):
        text, bi = setup
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = int(rng.integers(0, len(text) - 30))
            pat = text[s : s + 30]
            expected = [m.start() for m in re.finditer(f"(?={pat})", text)]
            assert bi.locate(bi.search(pat)).tolist() == expected

    def test_middle_out_equals_plain(self, setup):
        text, bi = setup
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = int(rng.integers(0, len(text) - 24))
            pat = text[s : s + 24]
            a = bi.search(pat)
            b = bi.search_from_middle(pat)
            assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_middle_out_any_split(self, setup):
        text, bi = setup
        pat = text[500:520]
        ref = bi.search(pat)
        for split in [0, 5, 10, 19]:
            got = bi.search_from_middle(pat, split=split)
            assert (got.lo, got.hi) == (ref.lo, ref.hi), split

    def test_split_bounds(self, setup):
        _, bi = setup
        with pytest.raises(ValueError):
            bi.search_from_middle("ACGT", split=4)

    def test_empty_pattern(self, setup):
        text, bi = setup
        iv = bi.search("")
        # DESIGN.md 9: [1, n_rows) on both strands - the sentinel row is
        # not a text position and never counts as a match.
        assert (iv.lo, iv.hi) == (1, bi.n_rows)
        assert (iv.lo_r, iv.hi_r) == (1, bi.n_rows)
        assert iv.count == len(text)


class TestOneMismatch:
    @pytest.mark.parametrize("length", [8, 16, 25])
    def test_matches_hamming_oracle(self, setup, length):
        text, bi = setup
        rng = np.random.default_rng(length)
        for _ in range(6):
            s = int(rng.integers(0, len(text) - length))
            pat = text[s : s + length]
            hits = bi.search_one_mismatch(pat)
            got = sorted({int(p) for iv, _ in hits for p in bi.locate(iv)})
            oracle = sorted({p for p, _ in find_with_mismatches(text, pat, 1)})
            assert got == oracle

    def test_mutated_pattern_found(self, setup):
        text, bi = setup
        pat = list(text[600:630])
        pat[7] = "A" if pat[7] != "A" else "C"
        hits = bi.search_one_mismatch("".join(pat))
        positions = {int(p) for iv, _ in hits for p in bi.locate(iv)}
        assert 600 in positions

    def test_mismatch_positions_reported(self, setup):
        text, bi = setup
        pat = list(text[700:720])
        pat[3] = "A" if pat[3] != "A" else "C"
        hits = bi.search_one_mismatch("".join(pat))
        # At least one hit must blame position 3 (the planted error).
        assert any(pos == 3 for iv, pos in hits if not iv.empty)

    def test_fewer_extension_steps_than_backtracking(self, setup):
        """The pigeonhole search must perform fewer interval-extension
        steps (the hardware pipeline's work unit) than blind k=1
        backtracking on the same pattern.  Each bidirectional step costs
        more rank queries (the smaller-symbol counts), which hardware
        parallelizes — the steps-vs-ranks trade Ablation H reports."""
        from repro.mapper.mismatch import search_with_mismatches

        text, bi = setup
        pat = list(text[100:160])
        pat[10] = "A" if pat[10] != "A" else "C"
        pattern = "".join(pat)
        bi_counted = BidirectionalFMIndex(text, sf=4)
        with CounterScope() as bi_scope:
            bi_counted.search_one_mismatch(pattern)
        from repro import build_index

        plain, _ = build_index(text, sf=4)
        with CounterScope() as bt_scope:
            search_with_mismatches(plain, pattern, 1)
        assert bi_scope.delta["bs_steps"] < bt_scope.delta["bs_steps"]


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_property_bidirectional_equals_plain(data):
    text = data.draw(st.text(alphabet="ACGT", min_size=8, max_size=80))
    bi = BidirectionalFMIndex(text, b=8, sf=3)
    start = data.draw(st.integers(0, len(text) - 4))
    pat = text[start : start + 4]
    iv = bi.search_from_middle(pat)
    expected = [m.start() for m in re.finditer(f"(?={re.escape(pat)})", text)]
    assert bi.locate(iv).tolist() == expected
