"""Micro-benchmarks: the rank primitive across structures.

Rank is the operation everything reduces to — each backward-search step
issues four binary ranks on the succinct path.  These benches time the
single-query and batched rank of every structure in the repository on
identical 1 Mbit data, giving the per-op numbers behind the cost models
(and a regression canary for the hot paths).
"""

import numpy as np
import pytest

from repro.core.bitvector import BitVector
from repro.core.interleaved import InterleavedRankVector
from repro.core.rrr import RRRVector

N_BITS = 1_000_000
N_QUERIES = 2_000


@pytest.fixture(scope="module")
def bits():
    rng = np.random.default_rng(77)
    return rng.integers(0, 2, N_BITS).astype(np.uint8)


@pytest.fixture(scope="module")
def positions():
    rng = np.random.default_rng(78)
    return rng.integers(0, N_BITS + 1, N_QUERIES)


def bench_rank_plain_bitvector(benchmark, bits, positions):
    v = BitVector(bits)
    expected = int(np.cumsum(bits)[-1])

    def run():
        return v.rank1_many(positions)

    out = benchmark(run)
    assert out.max() <= expected


def bench_rank_rrr_paper_params(benchmark, bits, positions):
    v = RRRVector(bits, b=15, sf=50)
    v.build_batch_cache()

    def run():
        return v.rank1_many(positions)

    out = benchmark(run)
    assert np.array_equal(out, BitVector(bits).rank1_many(positions))


def bench_rank_rrr_scalar(benchmark, bits, positions):
    v = RRRVector(bits, b=15, sf=50)
    scalar_positions = positions[:100]

    def run():
        return [v.rank1(int(p)) for p in scalar_positions]

    out = benchmark(run)
    oracle = BitVector(bits)
    assert out == [oracle.rank1(int(p)) for p in scalar_positions]


def bench_rank_interleaved(benchmark, bits, positions):
    v = InterleavedRankVector(bits, b=48)

    def run():
        return v.rank1_many(positions)

    out = benchmark(run)
    assert np.array_equal(out, BitVector(bits).rank1_many(positions))


def bench_rrr_construction(benchmark, bits):
    result = benchmark(lambda: RRRVector(bits, b=15, sf=50))
    assert result.n == N_BITS


# --- fused lo/hi occ kernels --------------------------------------------
#
# Backward search queries Occ at both interval boundaries with the same
# symbol every step.  occ2_many fuses the two boundary sets into one
# wavelet descent; these rows quantify the saving over two occ_many calls.

OCC_TEXT_LENGTH = 250_000


@pytest.fixture(scope="module")
def occ_structure():
    from repro.sequence.alphabet import decode
    from repro.sequence.bwt import bwt_from_string

    from repro.core.bwt_structure import BWTStructure

    rng = np.random.default_rng(79)
    text = decode(rng.integers(0, 4, OCC_TEXT_LENGTH).astype(np.uint8))
    structure = BWTStructure(bwt_from_string(text), b=15, sf=50)
    structure.build_batch_cache()
    return structure


@pytest.fixture(scope="module")
def occ_bounds(occ_structure):
    rng = np.random.default_rng(80)
    n = occ_structure.n_rows
    return (
        rng.integers(0, n + 1, N_QUERIES),
        rng.integers(0, n + 1, N_QUERIES),
    )


def bench_occ_many_pair(benchmark, occ_structure, occ_bounds):
    plo, phi = occ_bounds

    def run():
        return [
            (occ_structure.occ_many(a, plo), occ_structure.occ_many(a, phi))
            for a in range(4)
        ]

    out = benchmark(run)
    assert len(out) == 4


def bench_occ2_many_fused(benchmark, save_report, occ_structure, occ_bounds):
    import time

    from repro.bench.reporting import render_table

    plo, phi = occ_bounds

    def run_pair():
        return [
            (occ_structure.occ_many(a, plo), occ_structure.occ_many(a, phi))
            for a in range(4)
        ]

    def run_fused():
        return [occ_structure.occ2_many(a, plo, phi) for a in range(4)]

    out = benchmark(run_fused)
    for a in range(4):
        flo, fhi = out[a]
        assert np.array_equal(flo, occ_structure.occ_many(a, plo))
        assert np.array_equal(fhi, occ_structure.occ_many(a, phi))

    def best_of(fn, repeats=7):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_pair = best_of(run_pair)
    t_fused = best_of(run_fused)
    text = render_table(
        ["kernel", "best ms (4 symbols x 2k bounds)", "relative"],
        [
            ["occ_many x2 (lo, hi separately)", f"{t_pair * 1e3:.3f}", "1.00x"],
            ["occ2_many (fused descent)", f"{t_fused * 1e3:.3f}",
             f"{t_pair / t_fused:.2f}x"],
        ],
        title="Fused lo/hi occ kernel vs two independent occ_many calls",
    )
    save_report("micro_rank_occ_fused", text)
