"""The batched rank loops carry only live intervals.

``Ftab.build`` ranks only the k-mers still alive at each level,
``FMIndex.search_batch`` keeps its in-flight queries compacted and
writes a query back when it finishes, and ``SampledSA.locate_batch``
answers "landed?" from one decoded mark block per row.  Each must
answer exactly what its scalar oracle answers and charge exactly what
the same work charges one query at a time.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro import build_index
from repro.bench.fixtures import make_dna
from repro.core.counters import CounterScope
from repro.core.rrr import RRRVector
from repro.index.ftab import Ftab

#: Counts a batch search charges exactly as the scalar search does.
SEARCH_COUNTS = ("queries", "bs_steps", "ftab_lookups", "wt_ranks",
                 "occ_checkpoint_ranks", "occ_scan_chars")


def _distinct_kmers(text: str, j: int) -> int:
    return len({text[i : i + j] for i in range(len(text) - j + 1)})


class TestFtabLiveLevels:
    @pytest.mark.parametrize("backend", ["rrr", "occ"])
    @pytest.mark.parametrize(
        "text, k",
        [
            (make_dna(40, seed=1), 4),
            (make_dna(200, seed=2), 5),
            ("ACGTTGCA" * 12, 5),
            (make_dna(300, seed=3), 6),
            # Short suffixes ending in A-runs share or border k-mer
            # boundaries (j_w = 0 for every all-A suffix).
            ("ACGTAAAA", 5),
            pytest.param(make_dna(5000) + "AAAAAA", 7, id="dna5000+A6-7"),
        ],
    )
    def test_every_entry_equals_scalar_search(self, backend, text, k):
        """All 4^k entries, dead ones included, on texts shorter than
        4^k: the table answers the scalar search's (lo, hi, steps)."""
        assert len(text) < 4**k
        plain, _ = build_index(text, b=15, sf=8, backend=backend)
        ftab = Ftab.build(plain.backend, k)
        want = np.array(
            [
                (r.start, r.end, r.steps)
                for r in map(plain.search, map("".join, product("ACGT", repeat=k)))
            ]
        )
        lo, hi, steps = ftab.lookup_many(np.arange(4**k))
        assert np.array_equal(lo, want[:, 0])
        assert np.array_equal(hi, want[:, 1])
        assert np.array_equal(steps, want[:, 2])
        dead = steps < k
        assert dead.any() and np.array_equal(lo[dead], hi[dead])
        # The stored short suffixes are the text's last k - 1 symbols.
        base4 = text.translate(str.maketrans("ACGT", "0123"))
        tails = [
            int(base4[-m:], 4) * 4 ** (k - m)
            for m in range(1, min(len(text), k - 1) + 1)
        ]
        assert ftab.tails.tolist() == tails

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_ranks_only_live_intervals(self, small_text, k):
        """Level j + 1 ranks the four extensions of each live j-mer: one
        fused rank per bound, so 8 wavelet ranks per distinct j-mer."""
        plain, _ = build_index(small_text, b=15, sf=8)
        with CounterScope() as scope:
            Ftab.build(plain.backend, k)
        live = sum(_distinct_kmers(small_text, j) for j in range(1, k))
        assert scope.delta["wt_ranks"] == 4 + 8 * live

    def test_dead_text_copies_level_one(self):
        """A one-symbol text leaves a single live k-mer per level."""
        plain, _ = build_index("AAAA", b=15, sf=8)
        ftab = Ftab.build(plain.backend, 3)
        res = plain.search("CAA")
        assert ftab.lookup(np.array([1, 0, 0])) == (res.start, res.end, res.steps)
        lo, hi, _ = ftab.lookup_many(np.arange(len(ftab)))
        assert np.count_nonzero(lo < hi) == 1


def _battery(text: str, k: int) -> list[str]:
    """Mixed lengths around k, the empty pattern, absent patterns, and
    prefixes of the text, whose intervals hold the row whose BWT symbol
    is the sentinel."""
    rng = np.random.default_rng(len(text) + k)
    pats = ["", text, text[:1], text[: k - 1], text[:k], text[: k + 1], text[: 3 * k]]
    for _ in range(60):
        length = int(rng.integers(1, 3 * k + 4))
        start = int(rng.integers(0, len(text) - length))
        pat = text[start : start + length]
        if rng.random() < 0.3:  # a mismatch: many empty mid-way
            i = int(rng.integers(0, length))
            pat = pat[:i] + "ACGT"[("ACGT".index(pat[i]) + 1) % 4] + pat[i + 1 :]
        pats.append(pat)
    pats += ["T" * (2 * k), "ACGT" * k, text[-k:], text[-1:]]
    return pats


class TestCompactedSearchBatch:
    @pytest.mark.parametrize("backend", ["rrr", "occ"])
    @pytest.mark.parametrize("use_ftab", [False, True])
    def test_values_and_counts_match_scalar(self, small_text, backend, use_ftab):
        k = 4
        index, _ = build_index(small_text, b=15, sf=8, backend=backend, ftab_k=k)
        index.use_ftab = use_ftab
        pats = _battery(small_text, k)
        with CounterScope() as batch_scope:
            lo, hi, steps = index.search_batch(pats)
        with CounterScope() as single_scope:
            for p in pats:
                index.search_batch([p])
        with CounterScope() as scalar_scope:
            scalar = [index.search(p) for p in pats]
        assert [(r.start, r.end, r.steps) for r in scalar] == list(
            zip(lo.tolist(), hi.tolist(), steps.tolist())
        )
        # Sentinel-row intervals were exercised, and the ftab both ways.
        dollar = index.backend.dollar_pos
        assert any(s <= dollar < e for s, e in zip(lo.tolist(), hi.tolist()) if e > s + 1)
        assert (batch_scope.delta["ftab_lookups"] > 0) == use_ftab
        assert batch_scope.delta == single_scope.delta
        for key in SEARCH_COUNTS:
            assert batch_scope.delta[key] == scalar_scope.delta[key], key

    def test_one_rank_call_per_step(self, small_text, monkeypatch):
        """Each column is one occ2_many call over the queries in flight
        there, whether they started at column 0 or joined from the
        table."""
        k = 4
        index, _ = build_index(small_text, b=15, sf=8, ftab_k=k)
        pats = _battery(small_text, k)
        sizes = []
        orig = type(index.backend).occ2_many

        def counted(self, a, lo, hi):
            sizes.append(len(lo))
            return orig(self, a, lo, hi)

        monkeypatch.setattr(type(index.backend), "occ2_many", counted)
        _, _, steps = index.search_batch(pats)
        lengths = np.array([len(p) for p in pats])
        start = np.where(lengths >= k, k, 0)
        ran = steps - np.where(lengths >= k, np.minimum(steps, k), 0)
        columns = {}
        for s, n in zip(start.tolist(), ran.tolist()):
            for t in range(s, s + n):
                columns[t] = columns.get(t, 0) + 1
        assert sizes == [columns[t] for t in sorted(columns)]

    def test_occ2_many_rejects_unpaired_bounds(self, small_index):
        with pytest.raises(ValueError, match="same shape"):
            small_index.backend.occ2_many(0, np.array([1, 2]), np.array([3]))

    def test_empty_batches(self, small_index):
        lo, hi, steps = small_index.search_batch([])
        assert lo.size == hi.size == steps.size == 0
        lo, hi, steps = small_index.search_batch(["", ""])
        assert lo.tolist() == [1, 1] and steps.tolist() == [0, 0]


class TestLocateOneGather:
    @pytest.mark.parametrize("k", [1, 4, 32])
    def test_locate_batch_matches_scalar_locate(self, small_text, k):
        index, _ = build_index(small_text, b=15, sf=8, locate="sampled", sa_sample_rate=k)
        sampled, backend = index.locate_structure, index.backend
        pats = [p for p in _battery(small_text, 4) if p]
        lo, hi, _ = index.search_batch(pats)
        pos, offsets = sampled.locate_batch(lo, hi, backend.lf_many)
        want = [sampled.locate(r, backend.lf) for s, e in zip(lo, hi) for r in range(s, e)]
        assert pos.tolist() == want
        assert np.array_equal(np.diff(offsets), np.maximum(hi - lo, 0))

    @pytest.mark.parametrize("b", [5, 15, 20])
    def test_rank1_bit_many_is_the_rank_pair(self, b):
        bits = (np.random.default_rng(b).random(500) < 0.2).astype(np.uint8)
        vec = RRRVector(bits, b=b, sf=4)
        p = np.arange(bits.size)
        with CounterScope() as one:
            rank, bit = vec.rank1_bit_many(p)
        with CounterScope() as pair:
            both = vec.rank1_many(np.concatenate([p, p + 1]))
        assert np.array_equal(rank, both[: p.size])
        assert np.array_equal(bit, both[p.size :] != both[: p.size])
        assert np.array_equal(bit, bits.astype(bool))
        assert one.delta == pair.delta
        with pytest.raises(IndexError):
            vec.rank1_bit_many(np.array([bits.size]))
