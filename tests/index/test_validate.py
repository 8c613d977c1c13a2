"""Unit tests for index self-validation."""

import numpy as np
import pytest

from repro import build_index
from repro.index.validate import IndexValidationError, validate_index


@pytest.fixture(scope="module")
def good_index():
    rng = np.random.default_rng(81)
    text = "".join("ACGT"[c] for c in rng.integers(0, 4, 500))
    index, _ = build_index(text, sf=4)
    return index


class TestValidateGood:
    def test_passes_rrr_backend(self, good_index):
        report = validate_index(good_index)
        assert report.n_rows == good_index.n_rows
        assert set(report.checks) >= {
            "c_array",
            "lf_bijective",
            "occ_monotone",
            "locate_roundtrip",
        }

    def test_passes_occ_backend(self):
        rng = np.random.default_rng(82)
        text = "".join("ACGT"[c] for c in rng.integers(0, 4, 400))
        index, _ = build_index(text, backend="occ")
        validate_index(index)

    def test_passes_without_locate(self):
        rng = np.random.default_rng(83)
        text = "".join("ACGT"[c] for c in rng.integers(0, 4, 300))
        index, _ = build_index(text, locate="none", sf=4)
        report = validate_index(index)
        assert "locate_roundtrip" not in report.checks

    def test_deterministic_per_seed(self, good_index):
        a = validate_index(good_index, seed=3)
        b = validate_index(good_index, seed=3)
        assert a.checks == b.checks


class TestValidateBroken:
    def test_detects_corrupted_c_array(self, good_index):
        index = good_index

        class BrokenC:
            def __getattr__(self, name):
                return getattr(index.backend, name)

            def count_smaller(self, a):
                return index.backend.count_smaller(a) + (1 if a == 2 else 0)

        from repro.index.fm_index import FMIndex

        broken = FMIndex(BrokenC(), locate_structure=None)
        with pytest.raises(IndexValidationError, match="C-array|Occ"):
            validate_index(broken)

    def test_detects_constant_lf(self, good_index):
        index = good_index

        class BrokenLF:
            def __getattr__(self, name):
                return getattr(index.backend, name)

            def lf(self, i):
                return 0

        from repro.index.fm_index import FMIndex

        broken = FMIndex(BrokenLF(), locate_structure=None)
        with pytest.raises(IndexValidationError, match="injective"):
            validate_index(broken)

    def test_detects_non_monotone_occ(self, good_index):
        index = good_index

        class BrokenOcc:
            def __getattr__(self, name):
                return getattr(index.backend, name)

            def occ(self, a, i):
                real = index.backend.occ(a, i)
                # Jump violating the unit-step property.
                return real + (5 if (a == 1 and i > index.backend.n_rows // 2) else 0)

        from repro.index.fm_index import FMIndex

        broken = FMIndex(BrokenOcc(), locate_structure=None)
        with pytest.raises(IndexValidationError):
            validate_index(broken)

    def test_detects_rotated_sa(self, good_index):
        # A rotated SA is still a permutation but localizes everything
        # wrongly; the locate round-trip must catch it.
        from repro.index.fm_index import FMIndex
        from repro.sequence.sampled_sa import FullSA

        sa = np.roll(good_index.locate_structure.sa.copy(), 1)
        broken = FMIndex(good_index.backend, locate_structure=FullSA(sa))
        with pytest.raises(IndexValidationError, match="located|permutation"):
            validate_index(broken, samples=64)

    def test_detects_non_permutation_sa(self, good_index):
        from repro.index.fm_index import FMIndex
        from repro.sequence.sampled_sa import FullSA

        sa = good_index.locate_structure.sa.copy()
        sa[10] = sa[20]  # duplicate entry
        broken = FMIndex(good_index.backend, locate_structure=FullSA(sa))
        with pytest.raises(IndexValidationError, match="permutation"):
            validate_index(broken)


class TestValidateSampled:
    @pytest.fixture(scope="class")
    def sampled_index(self):
        rng = np.random.default_rng(84)
        text = "".join("ACGT"[c] for c in rng.integers(0, 4, 400))
        index, _ = build_index(text, locate="sampled", sa_sample_rate=8, sf=4)
        return index

    def _with_samples(self, index, samples):
        from repro.index.fm_index import FMIndex
        from repro.sequence.sampled_sa import SampledSA

        loc = index.locate_structure
        meta, arrays = loc.export_arrays()
        broken = SampledSA.from_arrays(meta, {**arrays, "samples": samples})
        return FMIndex(index.backend, locate_structure=broken)

    def test_passes_and_records_checks(self, sampled_index):
        report = validate_index(sampled_index)
        loc = sampled_index.locate_structure
        assert report.checks["sampled_counts"] == 1
        assert report.checks["sampled_permutation"] == loc.samples.size
        # 51 marked rows: at most 64 marked plus 64 random rows.
        assert report.checks["sampled_lf_step"] == loc.samples.size + 64

    def test_detects_swapped_sample(self, sampled_index):
        samples = sampled_index.locate_structure.samples.copy()
        samples[[3, 17]] = samples[[17, 3]]
        with pytest.raises(IndexValidationError, match="breaks LF"):
            validate_index(self._with_samples(sampled_index, samples))

    def test_detects_non_permutation_samples(self, sampled_index):
        samples = sampled_index.locate_structure.samples.copy()
        samples[3] = samples[17]
        with pytest.raises(IndexValidationError, match="permutation"):
            validate_index(self._with_samples(sampled_index, samples))

    def test_detects_missing_sample(self, sampled_index):
        samples = sampled_index.locate_structure.samples[:-1]
        with pytest.raises(IndexValidationError, match="marks"):
            validate_index(self._with_samples(sampled_index, samples))
