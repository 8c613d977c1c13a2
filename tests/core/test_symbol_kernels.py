"""Per-element-symbol rank kernels and the batch locate built on them.

``occ_many``/``occ2_many`` accept one symbol per position, ``lf_many``
makes one ``occ_many`` call per LF step, and ``locate_batch`` resolves a
whole batch of row intervals with one shared LF walk.  Each is checked
against its per-symbol or scalar oracle: values *and* ``OpCounters``
deltas for the rank kernels, values for LF and locate.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracles import oracle_index
from repro.core.bwt_structure import BWTStructure
from repro.core.counters import CounterScope
from repro.core.interleaved import interleaved_factory
from repro.core.rrr import RRRVector
from repro.core.wavelet_tree import plain_bitvector_factory
from repro.index.flat import load_index_flat, save_index_flat
from repro.index.fm_index import FMIndex
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

    def test_no_per_node_rank_calls(self, small_index, monkeypatch):
        """An RRR tree answers a mixed batch from its level arena: no
        node's own ``rank1_many`` runs, whatever the symbol mix."""
        calls = []
        orig = RRRVector.rank1_many

        def counted(self, p):
            calls.append(len(p))
            return orig(self, p)

        monkeypatch.setattr(RRRVector, "rank1_many", counted)
        backend = small_index.backend
        got = backend.occ2_many(
            np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), np.array([9, 9, 9, 9])
        )
        backend.occ_many(2, np.array([0, 5, 9]))
        assert calls == []
        assert got[0].tolist() == [backend.occ(a, p) for a, p in zip(range(4), (1, 2, 3, 4))]


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


#: Every wavelet-tree shape ``lf_many`` descends: the uniform RRR arena,
#: the five-symbol tree (uneven paths) and the ablation's plain and
#: interleaved bit-vectors (no arena), which descend node by node.
TREES = {
    "rrr": dict(b=8, sf=4),
    "rrr_sentinel_in_tree": dict(b=8, sf=4, store_sentinel_in_tree=True),
    "plain": dict(bitvector_factory=plain_bitvector_factory),
    "interleaved": dict(bitvector_factory=interleaved_factory(b=32)),
}


class TestLfManyTrees:
    @pytest.mark.parametrize("tree", TREES)
    @pytest.mark.parametrize("with_sentinel", [False, True])
    def test_values_and_counters_equal_the_rank_descent(self, tree, with_sentinel):
        """Symbol and rank come from one descent, charged exactly as the
        rank descent of each row's own symbol: no access is charged."""
        codes = np.random.default_rng(7).integers(0, 4, 300).astype(np.uint8)
        bwt = bwt_from_codes(codes)
        backend = BWTStructure(bwt, **TREES[tree])
        rows = np.random.default_rng(8).integers(0, backend.n_rows, 200)
        rows = rows[rows != bwt.dollar_pos]
        if with_sentinel:
            rows = np.append(rows, bwt.dollar_pos)
        with CounterScope() as got:
            out = backend.lf_many(rows)
        assert out.tolist() == [backend.lf(int(r)) for r in rows]
        with CounterScope() as want:
            if backend.store_sentinel_in_tree:
                sym = bwt.codes.astype(np.int64)[rows] + 1
                sym[rows == bwt.dollar_pos] = 0
                backend.tree.rank_many(sym, rows)
            else:
                real = rows[rows != bwt.dollar_pos]
                backend.occ_many(bwt.codes.astype(np.int64)[real], real)
        assert got.delta == want.delta and got.delta["wt_ranks"] > 0

    @pytest.mark.parametrize("tree", TREES)
    def test_sampled_locate_over_every_tree(self, tree):
        codes = np.random.default_rng(9).integers(0, 4, 400).astype(np.uint8)
        bwt = bwt_from_codes(codes)
        backend = BWTStructure(bwt, **TREES[tree])
        starts, ends = np.array([0, 17, 200]), np.array([9, 60, bwt.length])
        pos, offsets = SampledSA(bwt.sa, k=5).locate_batch(starts, ends, backend.lf_many)
        want, want_offsets = FullSA(bwt.sa).locate_batch(starts, ends)
        assert pos.tolist() == want.tolist() and offsets.tolist() == want_offsets.tolist()


def _scalar_concat(loc, lf, starts, ends):
    parts = [loc.locate_range(int(s), int(e), lf=lf) for s, e in zip(starts, ends)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _walk_length(sa: np.ndarray, k: int, row: int, lf) -> int:
    """LF steps from ``row`` to the first row whose suffix starts at a
    multiple of ``k`` (the rows a text-sampled SA keeps)."""
    steps = 0
    while sa[row] % k != 0:
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
        # The flat container round trip locates every row the same way.
        every = [0], [n_rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.bwvr"
            save_index_flat(FMIndex(backend, locate_structure=sampled), path)
            reopened = load_index_flat(path, verify=True)
            got, _ = reopened.locate_structure.locate_batch(
                *every, reopened.backend.lf_many
            )
            assert np.array_equal(got, FullSA(bwt.sa).locate_batch(*every)[0])
            del reopened

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

    def test_walk_is_bounded_by_k(self):
        """Sampling is by text position, so every row reaches a sampled
        one within k - 1 LF steps: batch locate over all rows of the text
        (whose ``lf_many`` calls number its longest walk) stops within
        k - 1 calls and agrees with the full SA and the scalar walk."""
        codes = np.random.default_rng(5).integers(0, 4, 4000).astype(np.uint8)
        bwt, backend = make_backend("rrr", codes)
        k = 32
        sampled = SampledSA(bwt.sa, k=k)
        calls = []
        pos, _ = sampled.locate_batch(
            [0], [bwt.length], lambda rows: calls.append(rows.size) or backend.lf_many(rows)
        )
        assert len(calls) <= k - 1
        assert np.array_equal(pos, bwt.sa)
        rows = range(0, bwt.length, 7)
        assert [sampled.locate(r, backend.lf) for r in rows] == pos[::7].tolist()
        assert max(_walk_length(bwt.sa, k, r, backend.lf) for r in rows) <= k - 1


class TestMapperLocateStructure:
    """On a sampled index, ``map_reads`` walks every hit interval of the
    batch together: its ``lf_many`` calls equal the longest single walk,
    however many intervals hit."""

    @pytest.fixture(scope="class")
    def sampled_index(self, repetitive_text):
        # The oracle pipeline's index keeps its SA (``backend.bwt.sa``),
        # the walk-length reference below.
        return oracle_index(repetitive_text, locate="sampled", sa_sample_rate=16)

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
        k = sampled_index.locate_structure.k
        sa = sampled_index.backend.bwt.sa
        lf = sampled_index.backend.lf
        for n_reads in (8, 64):
            reads = [repetitive_text[i * 11 : i * 11 + 24] for i in range(n_reads)]
            calls, results = self._count_calls(sampled_index, reads)
            hits = [h.interval for r in results for h in (r.forward, r.reverse) if h.found]
            rows = [row for iv in hits for row in range(iv.start, iv.end)]
            assert len(hits) >= n_reads
            assert len(calls) == max(_walk_length(sa, k, r, lf) for r in rows)
            assert len(calls) <= k - 1
