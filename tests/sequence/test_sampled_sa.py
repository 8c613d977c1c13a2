"""Unit tests for full and sampled suffix arrays (locate structures)."""

import numpy as np
import pytest

from repro.core.bwt_structure import BWTStructure
from repro.sequence.alphabet import encode
from repro.sequence.bwt import bwt_from_codes
from repro.sequence.sampled_sa import FullSA, SampledSA


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(23)
    codes = rng.integers(0, 4, 300).astype(np.uint8)
    bwt = bwt_from_codes(codes)
    struct = BWTStructure(bwt, b=8, sf=4)
    return bwt, struct


class TestFullSA:
    def test_locate_matches_sa(self, setup):
        bwt, _ = setup
        full = FullSA(bwt.sa)
        for row in range(0, bwt.length, 13):
            assert full.locate(row) == bwt.sa[row]

    def test_locate_range(self, setup):
        bwt, _ = setup
        full = FullSA(bwt.sa)
        got = full.locate_range(10, 20)
        assert np.array_equal(got, bwt.sa[10:20])

    def test_bounds(self, setup):
        bwt, _ = setup
        full = FullSA(bwt.sa)
        with pytest.raises(IndexError):
            full.locate(bwt.length)
        with pytest.raises(IndexError):
            full.locate_range(5, bwt.length + 1)

    def test_size(self, setup):
        bwt, _ = setup
        assert FullSA(bwt.sa).size_in_bytes() == bwt.sa.nbytes


class TestSampledSA:
    @pytest.mark.parametrize("k", [1, 2, 8, 32, 64])
    def test_locate_matches_full(self, setup, k):
        bwt, struct = setup
        sampled = SampledSA(bwt.sa, k=k)
        for row in range(0, bwt.length, 7):
            assert sampled.locate(row, lf=struct.lf) == bwt.sa[row], (k, row)

    def test_locate_range_matches(self, setup):
        bwt, struct = setup
        sampled = SampledSA(bwt.sa, k=16)
        got = sampled.locate_range(50, 70, lf=struct.lf)
        assert np.array_equal(got, bwt.sa[50:70])

    def test_rejects_bad_rate(self, setup):
        bwt, _ = setup
        with pytest.raises(ValueError):
            SampledSA(bwt.sa, k=0)

    def test_bounds(self, setup):
        bwt, struct = setup
        sampled = SampledSA(bwt.sa, k=8)
        with pytest.raises(IndexError):
            sampled.locate(bwt.length, lf=struct.lf)

    def test_smaller_than_full(self, setup):
        bwt, _ = setup
        full = FullSA(bwt.sa)
        sampled = SampledSA(bwt.sa, k=32)
        assert sampled.size_in_bytes() < full.size_in_bytes() / 16

    def test_k1_is_full(self, setup):
        bwt, struct = setup
        sampled = SampledSA(bwt.sa, k=1)
        assert np.array_equal(sampled.samples, bwt.sa)
        assert sampled.size_in_bytes() == (
            sampled.samples.nbytes + sampled.marks.size_in_bytes()
        )


class TestBatchedLocate:
    """Vectorized locate_range (lf_many) vs the scalar LF-walk oracle."""

    def test_sampled_batched_matches_scalar(self, setup):
        bwt, struct = setup
        sampled = SampledSA(bwt.sa, k=16)
        scalar = sampled.locate_range(0, bwt.length, lf=struct.lf)
        batched = sampled.locate_range(
            0, bwt.length, lf=struct.lf, lf_many=struct.lf_many
        )
        assert np.array_equal(batched, scalar)
        assert np.array_equal(batched, bwt.sa)

    @pytest.mark.parametrize("k", [1, 2, 8, 32, 64])
    def test_all_sample_rates(self, setup, k):
        bwt, struct = setup
        sampled = SampledSA(bwt.sa, k=k)
        got = sampled.locate_range(10, 90, lf=struct.lf, lf_many=struct.lf_many)
        assert np.array_equal(got, bwt.sa[10:90])

    def test_occ_backend_lf_many(self):
        from repro.index.occ_table import OccTable

        rng = np.random.default_rng(99)
        codes = rng.integers(0, 4, 500).astype(np.uint8)
        bwt = bwt_from_codes(codes)
        occ = OccTable(bwt, checkpoint_words=2)
        sampled = SampledSA(bwt.sa, k=8)
        got = sampled.locate_range(0, bwt.length, lf=occ.lf, lf_many=occ.lf_many)
        assert np.array_equal(got, bwt.sa)

    def test_lf_many_matches_scalar_lf(self, setup):
        bwt, struct = setup
        rows = np.arange(bwt.length, dtype=np.int64)
        batched = struct.lf_many(rows)
        scalar = np.array([struct.lf(int(r)) for r in rows])
        assert np.array_equal(batched, scalar)

    def test_lf_many_empty(self, setup):
        _, struct = setup
        assert struct.lf_many(np.zeros(0, dtype=np.int64)).size == 0

    def test_empty_range(self, setup):
        bwt, struct = setup
        sampled = SampledSA(bwt.sa, k=8)
        got = sampled.locate_range(5, 5, lf=struct.lf, lf_many=struct.lf_many)
        assert got.size == 0

    def test_full_sa_accepts_lf_many_kwarg(self, setup):
        bwt, _ = setup
        full = FullSA(bwt.sa)
        got = full.locate_range(3, 9, lf=None, lf_many=None)
        assert np.array_equal(got, bwt.sa[3:9])
