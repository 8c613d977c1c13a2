"""Counter parity: the vectorized batch paths must charge exactly what
the scalar Algorithm 1 paths would.

The analytic cost models consume operation counts; if the batch mapper
under-counted relative to the scalar algorithm, every modeled table
would silently shift.  These tests pin batch/scalar counter equality for
the RRR rank and the Occ-table rank, and the documented relationship for
the wavelet tree (batch may exceed scalar only by skipped early-exits).
"""

import numpy as np
import pytest

from repro.core.counters import CounterScope
from repro.core.rrr import RRRVector
from repro.index.occ_table import OccTable
from repro.sequence.bwt import bwt_from_string


class TestRRRCounterParity:
    @pytest.mark.parametrize("b,sf", [(15, 50), (8, 4), (15, 1), (5, 7)])
    def test_batch_equals_scalar_counts(self, b, sf):
        rng = np.random.default_rng(b + sf)
        bits = rng.integers(0, 2, 700).astype(np.uint8)
        positions = rng.integers(0, 701, size=150)

        v1 = RRRVector(bits, b=b, sf=sf)
        with CounterScope() as s1:
            for p in positions:
                v1.rank1(int(p))

        v2 = RRRVector(bits, b=b, sf=sf)
        with CounterScope() as s2:
            v2.rank1_many(positions)

        for key in ("binary_ranks", "class_sum_iterations", "superblock_reads",
                    "offset_reads", "table_lookups"):
            assert s1.delta[key] == s2.delta[key], (key, b, sf)

    def test_boundary_positions_parity(self):
        # Positions exactly on block and superblock boundaries.
        bits = np.ones(15 * 4 * 5, dtype=np.uint8)
        positions = np.array([0, 15, 30, 60, 120, 180, 240, 300])
        v1 = RRRVector(bits, b=15, sf=4)
        with CounterScope() as s1:
            for p in positions:
                v1.rank1(int(p))
        v2 = RRRVector(bits, b=15, sf=4)
        with CounterScope() as s2:
            v2.rank1_many(positions)
        assert s1.delta == s2.delta


class TestOccTableCounterParity:
    def test_batch_equals_scalar_counts(self):
        rng = np.random.default_rng(19)
        text = "".join("ACGT"[c] for c in rng.integers(0, 4, 600))
        bwt = bwt_from_string(text)
        positions = rng.integers(0, bwt.length + 1, size=120)

        t1 = OccTable(bwt, checkpoint_words=2)
        with CounterScope() as s1:
            for p in positions:
                t1.occ(2, int(p))

        t2 = OccTable(bwt, checkpoint_words=2)
        with CounterScope() as s2:
            t2.occ_many(2, positions)

        assert s1.delta["occ_checkpoint_ranks"] == s2.delta["occ_checkpoint_ranks"]
        assert s1.delta["occ_scan_chars"] == s2.delta["occ_scan_chars"]


class TestWaveletCounterRelation:
    def test_batch_wt_ranks_equal_scalar(self):
        from repro.core.wavelet_tree import WaveletTree

        rng = np.random.default_rng(23)
        codes = rng.integers(0, 4, 400)
        positions = rng.integers(0, 401, size=80)

        wt1 = WaveletTree(codes, sigma=4, b=15, sf=4)
        with CounterScope() as s1:
            for p in positions:
                wt1.rank(1, int(p))

        wt2 = WaveletTree(codes, sigma=4, b=15, sf=4)
        with CounterScope() as s2:
            wt2.rank_many(1, positions)

        assert s1.delta["wt_ranks"] == s2.delta["wt_ranks"]
        # Binary ranks: the scalar path may early-exit at rank 0, so batch
        # counts at least as many, never fewer.
        assert s2.delta["binary_ranks"] >= s1.delta["binary_ranks"]
