"""Unit tests for the RRR sequence (Fig. 3 layout, Algorithm 1)."""

import numpy as np
import pytest

from repro.core.bitvector import BitVector
from repro.core.counters import CounterScope
from repro.core.rrr import RRRVector


def cumsum_oracle(bits):
    return np.concatenate(([0], np.cumsum(bits)))


class TestConstruction:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            RRRVector([0, 2], b=4, sf=2)

    def test_rejects_bad_sf(self):
        with pytest.raises(ValueError, match="superblock factor"):
            RRRVector([0, 1], b=4, sf=0)

    def test_rejects_mismatched_tables(self):
        from repro.core.global_tables import get_global_tables

        with pytest.raises(ValueError, match="tables built for"):
            RRRVector([0, 1], b=4, sf=2, tables=get_global_tables(5))

    def test_accepts_bitvector_input(self):
        bv = BitVector([1, 0, 1, 1])
        r = RRRVector.from_bitvector(bv, b=3, sf=2)
        assert r.rank1(4) == 3

    def test_empty(self):
        r = RRRVector(np.zeros(0, dtype=np.uint8), b=15, sf=50)
        assert len(r) == 0
        assert r.rank1(0) == 0
        assert r.count() == 0


class TestRankCorrectness:
    @pytest.mark.parametrize("b,sf", [(1, 1), (3, 2), (4, 4), (8, 10), (15, 50), (15, 3)])
    def test_rank_matches_oracle(self, b, sf):
        rng = np.random.default_rng(b * 100 + sf)
        bits = rng.integers(0, 2, 400).astype(np.uint8)
        r = RRRVector(bits, b=b, sf=sf)
        cum = cumsum_oracle(bits)
        for p in range(401):
            assert r.rank1(p) == cum[p], (b, sf, p)

    def test_rank_on_exact_boundaries(self):
        # n a multiple of sf*b: every boundary branch of Algorithm 1 hits.
        bits = np.ones(15 * 4 * 3, dtype=np.uint8)
        r = RRRVector(bits, b=15, sf=4)
        for p in [0, 15, 60, 120, 180]:
            assert r.rank1(p) == p

    def test_rank_skewed_densities(self):
        rng = np.random.default_rng(9)
        for density in [0.0, 0.01, 0.5, 0.99, 1.0]:
            bits = (rng.random(300) < density).astype(np.uint8)
            r = RRRVector(bits, b=15, sf=5)
            cum = cumsum_oracle(bits)
            for p in range(0, 301, 7):
                assert r.rank1(p) == cum[p]

    def test_rank0(self):
        bits = np.array([1, 0, 0, 1, 0], dtype=np.uint8)
        r = RRRVector(bits, b=3, sf=2)
        for p in range(6):
            assert r.rank0(p) == p - int(bits[:p].sum())

    def test_rank_bounds(self):
        r = RRRVector([1, 0, 1], b=3, sf=2)
        with pytest.raises(IndexError):
            r.rank1(4)
        with pytest.raises(IndexError):
            r.rank1(-1)


class TestBatchRank:
    def test_matches_scalar_with_and_without_cache(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 640).astype(np.uint8)
        r = RRRVector(bits, b=15, sf=4)
        positions = np.arange(641)
        expected = np.array([r.rank1(int(p)) for p in positions])
        assert np.array_equal(r.rank1_many(positions), expected)
        r.build_batch_cache()
        assert np.array_equal(r.rank1_many(positions), expected)
        r.drop_batch_cache()
        assert np.array_equal(r.rank1_many(positions), expected)

    def test_empty_batch(self):
        r = RRRVector([1, 0], b=2, sf=1)
        assert r.rank1_many(np.zeros(0, dtype=np.int64)).size == 0

    def test_batch_bounds(self):
        r = RRRVector([1, 0], b=2, sf=1)
        with pytest.raises(IndexError):
            r.rank1_many(np.array([5]))


class TestAccessAndReconstruction:
    def test_access_matches_bits(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        r = RRRVector(bits, b=7, sf=3)
        for i in range(200):
            assert r.access(i) == bits[i]

    def test_access_bounds(self):
        r = RRRVector([1], b=2, sf=1)
        with pytest.raises(IndexError):
            r.access(1)

    def test_lossless_roundtrip(self):
        rng = np.random.default_rng(7)
        for n in [1, 14, 15, 16, 100]:
            bits = rng.integers(0, 2, n).astype(np.uint8)
            r = RRRVector(bits, b=15, sf=2)
            assert np.array_equal(r.to_bitvector().to_array(), bits)


class TestCounters:
    def test_rank_charges_counters(self):
        bits = np.ones(150, dtype=np.uint8)
        r = RRRVector(bits, b=15, sf=5)
        with CounterScope() as scope:
            r.rank1(77)  # mid-block: full Algorithm 1 path
        assert scope.delta["binary_ranks"] == 1
        assert scope.delta["offset_reads"] == 1
        assert scope.delta["table_lookups"] == 1
        assert 0 <= scope.delta["class_sum_iterations"] <= r.sf

    def test_class_iterations_bounded_by_sf(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 2000).astype(np.uint8)
        r = RRRVector(bits, b=15, sf=4)
        for p in range(0, 2001, 13):
            with CounterScope() as scope:
                r.rank1(p)
            assert scope.delta["class_sum_iterations"] <= 4

    def test_superblock_boundary_is_single_read(self):
        bits = np.ones(15 * 5 * 2, dtype=np.uint8)
        r = RRRVector(bits, b=15, sf=5)
        with CounterScope() as scope:
            r.rank1(75)  # exactly one superblock
        assert scope.delta["class_sum_iterations"] == 0
        assert scope.delta["offset_reads"] == 0


class TestSizeAccounting:
    def test_size_grows_sublinearly_vs_plain(self):
        rng = np.random.default_rng(10)
        # Low-entropy bits (mostly zeros) compress well.
        bits = (rng.random(60_000) < 0.03).astype(np.uint8)
        r = RRRVector(bits, b=15, sf=50)
        plain_bytes = 60_000 // 8
        assert r.size_in_bytes() < plain_bytes

    def test_larger_sf_smaller_size(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 50_000).astype(np.uint8)
        small = RRRVector(bits, b=15, sf=50).size_in_bytes()
        large = RRRVector(bits, b=15, sf=200).size_in_bytes()
        assert large < small

    def test_paper_formula_close_to_measured(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, 100_000).astype(np.uint8)
        r = RRRVector(bits, b=15, sf=50)
        measured = r.size_in_bytes(include_shared=True)
        formula = r.paper_size_bytes()
        # Same order, within 25% (the formula's constants are approximate).
        assert 0.75 < measured / formula < 1.25

    def test_entropy_zero_for_constant(self):
        assert RRRVector(np.zeros(100, dtype=np.uint8), b=4, sf=2).zero_order_entropy() == 0.0
        assert RRRVector(np.ones(100, dtype=np.uint8), b=4, sf=2).zero_order_entropy() == 0.0

    def test_entropy_max_for_balanced(self):
        bits = np.tile([0, 1], 100).astype(np.uint8)
        assert RRRVector(bits, b=4, sf=2).zero_order_entropy() == pytest.approx(1.0)

    def test_low_entropy_compresses_better(self):
        rng = np.random.default_rng(13)
        n = 30_000
        dense = rng.integers(0, 2, n).astype(np.uint8)
        sparse = (rng.random(n) < 0.02).astype(np.uint8)
        s_dense = RRRVector(dense, b=15, sf=50).size_in_bytes()
        s_sparse = RRRVector(sparse, b=15, sf=50).size_in_bytes()
        assert s_sparse < s_dense


# ---------------------------------------------------------------------------
# Construction memory: blocks are encoded in bounded chunks.
# ---------------------------------------------------------------------------


def _reference_arrays(bits: np.ndarray, b: int, sf: int) -> dict[str, np.ndarray]:
    """The RRR arrays computed the direct way: every block value at once
    from an int64 bit matrix, one ``pack_fields`` over all offsets."""
    from repro.core.bitio import pack_fields
    from repro.core.global_tables import encode_offsets, get_global_tables, popcount_block

    tables = get_global_tables(b)
    n_blocks = (bits.size + b - 1) // b
    n_super = (n_blocks + sf - 1) // sf
    padded = np.zeros(n_blocks * b, dtype=np.uint8)
    padded[: bits.size] = bits
    values = padded.reshape(-1, b).astype(np.int64) @ (np.int64(1) << np.arange(b))
    classes = popcount_block(values, b)
    widths = tables.widths[classes]
    words, _ = pack_fields(encode_offsets(values, b, tables.binomials).astype(np.uint64), widths)
    bounds = np.minimum(np.arange(n_super + 1) * sf, n_blocks)
    return {
        "classes": classes.astype(np.uint8),
        "partial_sums": np.concatenate(([0], np.cumsum(classes)))[bounds].astype(np.uint32),
        "offset_words": words,
        "offset_sums": np.concatenate(([0], np.cumsum(widths)))[bounds[:-1]].astype(np.uint32),
    }


@pytest.mark.parametrize("n,b,sf", [(0, 15, 50), (1, 15, 50), (20_000, 7, 4), (70_001, 24, 3)])
def test_build_matches_direct_encoding(n, b, sf):
    rng = np.random.default_rng(n + b)
    bits = (rng.random(n) < 0.3).astype(np.uint8)
    _, got = RRRVector(bits, b=b, sf=sf).export_arrays()
    for name, want in _reference_arrays(bits, b, sf).items():
        assert got[name].dtype == want.dtype, name
        assert got[name].tobytes() == want.tobytes(), name


def test_build_peak_memory_is_bounded():
    """A 1 Mbit vector at density 1/32 used to peak at 12.7 MB (an int64
    per bit) to build a 0.1 MB structure; chunked encoding must stay under
    a third of that, with byte-identical arrays."""
    import tracemalloc

    from repro.core.global_tables import get_global_tables

    get_global_tables(15)  # shared process-wide tables, outside the peak
    bits = (np.random.default_rng(0).random(1 << 20) < 1 / 32).astype(np.uint8)
    tracemalloc.start()
    try:
        rrr = RRRVector(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.7e6 / 3
    _, got = rrr.export_arrays()
    for name, want in _reference_arrays(bits, 15, 50).items():
        assert got[name].tobytes() == want.tobytes(), name
