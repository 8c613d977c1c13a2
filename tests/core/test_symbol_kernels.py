"""Per-element-symbol rank kernels and the batch locate built on them.

``occ_many``/``occ2_many`` accept one symbol per position, ``lf_many``
makes one ``occ_many`` call per LF step, and ``locate_batch`` resolves a
whole batch of row intervals with one shared LF walk.  Each is checked
against its per-symbol or scalar oracle: values *and* ``OpCounters``
deltas for the rank kernels, values for LF and locate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_index
from repro.core.bwt_structure import BWTStructure
from repro.core.counters import CounterScope
from repro.core.rrr import RRRVector
from repro.index.occ_table import OccTable
from repro.mapper.mapper import Mapper
from repro.sequence.bwt import bwt_from_codes
from repro.sequence.sampled_sa import FullSA, SampledSA

BACKENDS = ("rrr", "rrr_sentinel_in_tree", "occ")


def make_backend(kind: str, codes: np.ndarray):
    bwt = bwt_from_codes(codes)
    if kind == "occ":
        return bwt, OccTable(bwt, checkpoint_words=2)
    return bwt, BWTStructure(
        bwt, b=8, sf=4,
        store_sentinel_in_tree=kind == "rrr_sentinel_in_tree",
    )


def _per_symbol(backend, syms, lo, hi):
    """The oracle: one fused call per distinct symbol, scattered back."""
    out_lo = np.zeros(lo.size, dtype=np.int64)
    out_hi = np.zeros(hi.size, dtype=np.int64)
    for a in range(4):
        m = syms == a
        if m.any():
            out_lo[m], out_hi[m] = backend.occ2_many(a, lo[m], hi[m])
    return out_lo, out_hi


@st.composite
def rank_queries(draw):
    n = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, n).astype(np.uint8)
    m = draw(st.integers(0, 40))
    return codes, rng, m


class TestOcc2ManySymbolArray:
    @pytest.mark.parametrize("kind", BACKENDS)
    @settings(max_examples=25, deadline=None)
    @given(q=rank_queries())
    def test_matches_per_symbol_values_and_counters(self, kind, q):
        codes, rng, m = q
        bwt, backend = make_backend(kind, codes)
        n_rows = backend.n_rows
        edges = np.array([0, backend.dollar_pos, n_rows], dtype=np.int64)
        lo = np.concatenate([edges, rng.integers(0, n_rows + 1, m)])
        hi = np.concatenate([edges[::-1], rng.integers(0, n_rows + 1, m)])
        syms = rng.integers(0, 4, lo.size)
        with CounterScope() as want_scope:
            want = _per_symbol(backend, syms, lo, hi)
        with CounterScope() as got_scope:
            got = backend.occ2_many(syms, lo, hi)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got_scope.delta == want_scope.delta
        # And both agree with the scalar definition.
        for a, p, r in zip(syms, lo, got[0]):
            assert backend.occ(int(a), int(p)) == r

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_empty_batch(self, kind):
        _, backend = make_backend(kind, np.zeros(10, dtype=np.uint8))
        empty = np.zeros(0, dtype=np.int64)
        lo, hi = backend.occ2_many(empty, empty, empty)
        assert lo.size == 0 and hi.size == 0

    def test_one_descent_per_call(self, small_index, monkeypatch):
        """The four-symbol tree answers a mixed batch with three node
        ranks (root plus both children), not one descent per symbol."""
        calls = []
        orig = RRRVector.rank1_many

        def counted(self, p):
            calls.append(len(p))
            return orig(self, p)

        monkeypatch.setattr(RRRVector, "rank1_many", counted)
        small_index.backend.occ2_many(
            np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), np.array([9, 9, 9, 9])
        )
        assert sorted(calls) == [4, 4, 8]


class TestLfMany:
    @pytest.mark.parametrize("kind", BACKENDS)
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 150), seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_lf_on_every_row(self, kind, n, seed):
        codes = np.random.default_rng(seed).integers(0, 4, n).astype(np.uint8)
        _, backend = make_backend(kind, codes)
        rows = np.arange(backend.n_rows, dtype=np.int64)
        assert backend.lf_many(rows).tolist() == [backend.lf(int(r)) for r in rows]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_sentinel_past_the_last_packed_word(self, kind):
        """A 32-base text whose BWT ends in ``$``: the sentinel row sits one
        past the last packed 2-bit word, and must not be gathered."""
        codes = np.random.default_rng(620).integers(0, 4, 32).astype(np.uint8)
        bwt, backend = make_backend(kind, codes)
        assert bwt.dollar_pos == backend.n_rows - 1 == 32
        rows = np.arange(backend.n_rows, dtype=np.int64)
        assert backend.lf_many(rows).tolist() == [backend.lf(int(r)) for r in rows]


def _scalar_concat(loc, lf, starts, ends):
    parts = [loc.locate_range(int(s), int(e), lf=lf) for s, e in zip(starts, ends)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _walk_length(sampled: SampledSA, row: int, lf) -> int:
    steps = 0
    while row % sampled.k != 0:
        row = lf(row)
        steps += 1
    return steps


class TestLocateBatch:
    @pytest.mark.parametrize("k", [1, 2, 32])
    @pytest.mark.parametrize("kind", ("rrr", "occ"))
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), m=st.integers(0, 12))
    def test_matches_concatenated_scalar_locate(self, k, kind, n, seed, m):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, n).astype(np.uint8)
        bwt, backend = make_backend(kind, codes)
        sampled = SampledSA(bwt.sa, k=k)
        n_rows = backend.n_rows
        a = rng.integers(0, n_rows + 1, m)
        b = rng.integers(0, n_rows + 1, m)
        # Row 0 (the "$" suffix), the sentinel's BWT row, and an empty
        # interval ride along with the random ones.
        d = backend.dollar_pos
        starts = np.concatenate([[0, d, 3 % n_rows], np.minimum(a, b)])
        ends = np.concatenate([[1, d + 1, 3 % n_rows], np.maximum(a, b)])
        pos, offsets = sampled.locate_batch(starts, ends, backend.lf_many)
        assert offsets.tolist() == [0, *np.cumsum(ends - starts).tolist()]
        assert np.array_equal(pos, _scalar_concat(sampled, backend.lf, starts, ends))
        full_pos, full_offsets = FullSA(bwt.sa).locate_batch(starts, ends)
        assert np.array_equal(full_pos, pos)
        assert np.array_equal(full_offsets, offsets)

    def test_no_intervals(self):
        bwt, backend = make_backend("rrr", np.zeros(20, dtype=np.uint8))
        pos, offsets = SampledSA(bwt.sa, k=4).locate_batch([], [], backend.lf_many)
        assert pos.size == 0 and offsets.tolist() == [0]

    def test_rejects_bad_interval(self):
        bwt, backend = make_backend("rrr", np.zeros(20, dtype=np.uint8))
        with pytest.raises(IndexError):
            SampledSA(bwt.sa, k=4).locate_batch([5], [3], backend.lf_many)
        with pytest.raises(IndexError):
            FullSA(bwt.sa).locate_batch([0], [bwt.length + 1])

    def test_walk_longer_than_k(self):
        """Sampling is by row, so a walk can take far more than k - 1 LF
        steps; batch locate must follow it to the end."""
        codes = np.random.default_rng(5).integers(0, 4, 4000).astype(np.uint8)
        bwt, backend = make_backend("rrr", codes)
        k = 32
        sampled = SampledSA(bwt.sa, k=k)
        walks = [_walk_length(sampled, r, backend.lf) for r in range(0, bwt.length, 7)]
        long_rows = [7 * i for i, w in enumerate(walks) if w > k]
        assert long_rows, "expected at least one walk longer than k"
        row = long_rows[0]
        pos, _ = sampled.locate_batch([row], [row + 1], backend.lf_many)
        assert pos[0] == sampled.locate(row, backend.lf) == bwt.sa[row]


class TestMapperLocateStructure:
    """On a sampled index, ``map_reads`` walks every hit interval of the
    batch together: its ``lf_many`` calls equal the longest single walk,
    however many intervals hit."""

    @pytest.fixture(scope="class")
    def sampled_index(self, repetitive_text):
        index, _ = build_index(repetitive_text, locate="sampled", sa_sample_rate=16)
        return index

    def _count_calls(self, index, reads):
        backend = index.backend
        calls = []
        orig = backend.lf_many
        backend.lf_many = lambda rows: calls.append(rows.size) or orig(rows)
        try:
            results = Mapper(index).map_reads(reads)
        finally:
            del backend.lf_many
        return calls, results

    def test_lf_many_calls_do_not_grow_with_hits(self, sampled_index, repetitive_text):
        sampled = sampled_index.locate_structure
        lf = sampled_index.backend.lf
        for n_reads in (8, 64):
            reads = [repetitive_text[i * 11 : i * 11 + 24] for i in range(n_reads)]
            calls, results = self._count_calls(sampled_index, reads)
            hits = [h.interval for r in results for h in (r.forward, r.reverse) if h.found]
            rows = [row for iv in hits for row in range(iv.start, iv.end)]
            assert len(hits) >= n_reads
            assert len(calls) == max(_walk_length(sampled, r, lf) for r in rows)
