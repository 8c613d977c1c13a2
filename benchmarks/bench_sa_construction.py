"""Suffix-array construction micro-benchmarks.

Two quantities are pinned here:

* the SA-IS oracle (``suffix_array``: types, LMS naming and recursion
  vectorized in numpy, induced sorting in Python) against the index
  builder's own suffix sort, on the same codes;
* the out-of-core blockwise pipeline's construction throughput, on a
  scaled chr21 profile, alongside its peak-allocation ratio against the
  monolithic oracle pipeline (:func:`repro.check.oracles.oracle_index`;
  the quantity gated by the bench platform's ``blockwise-build`` hot
  path).
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.bench.harness import get_reference
from repro.index.builder import build_index
from repro.sequence.suffix_array import suffix_array

SA_N = 60_000


@pytest.fixture(scope="module")
def sa_codes():
    rng = np.random.default_rng(55)
    return rng.integers(0, 4, SA_N).astype(np.uint8)


def bench_sais_numpy(benchmark, sa_codes):
    out = benchmark(lambda: suffix_array(sa_codes))
    assert out.size == SA_N + 1


def bench_builder_suffix_sort(benchmark, sa_codes):
    """A full in-memory build, whose locate structure is the SA."""
    index = benchmark(lambda: build_index(sa_codes, locate="full", backend="occ")[0])
    assert index.locate_structure.sa.size == SA_N + 1


def bench_sa_construction_report(save_report):
    """Render the SA micro table and the blockwise build comparison."""
    import tempfile
    from pathlib import Path

    from repro.check.oracles import oracle_index
    from repro.core.global_tables import get_global_tables
    from repro.index.build_stream import build_index_blockwise
    from repro.index.flat import save_index_flat

    rng = np.random.default_rng(55)
    codes = rng.integers(0, 4, SA_N).astype(np.uint8)

    t0 = time.perf_counter()
    oracle_sa = suffix_array(codes)
    t_sais = time.perf_counter() - t0

    t0 = time.perf_counter()
    index, _ = build_index(codes, locate="full", backend="occ")
    t_build = time.perf_counter() - t0
    assert index.locate_structure.sa.tolist() == oracle_sa.tolist()

    # Blockwise build on the scaled chr21 profile: wall time and the
    # peak-allocation ratio against the monolithic oracle pipeline.
    scale = 0.01
    ref = get_reference("chr21", scale=scale)
    get_global_tables(15)  # shared tables: keep out of both peaks
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tracemalloc.start()
        t0 = time.perf_counter()
        index = oracle_index(ref)
        save_index_flat(index, tmp / "mono.bwvr")
        t_mono = time.perf_counter() - t0
        mono_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del index
        t0 = time.perf_counter()
        report = build_index_blockwise(
            ref, tmp / "blk.bwvr", block_mb=64.0 * scale, measure_peak=True
        )
        t_blk = time.perf_counter() - t0
        identical = (tmp / "mono.bwvr").read_bytes() == (tmp / "blk.bwvr").read_bytes()
    ratio = mono_peak / report.peak_alloc_bytes if report.peak_alloc_bytes else 0.0
    # The builder's own bound: its int64 rank array (8 B per text row)
    # plus twice the block budget.
    budget = 8 * (len(ref) + 1) + 2 * 64.0 * scale * (1 << 20)

    lines = [
        "SA construction / out-of-core build micro-bench",
        "=" * 60,
        f"n = {SA_N:,} codes (uniform ACGT, seed 55)",
        f"{'sais (numpy oracle)':24s} {t_sais * 1e3:10.1f} ms",
        f"{'build_index (occ, full)':24s} {t_build * 1e3:10.1f} ms"
        "   (SA + BWT + encode)",
        "",
        f"chr21 profile @ {scale} = {len(ref):,} bp",
        f"{'oracle build+save':24s} {t_mono:10.2f} s"
        f"   peak {mono_peak / 1e6:8.1f} MB",
        f"{'blockwise build':24s} {t_blk:10.2f} s"
        f"   peak {report.peak_alloc_bytes / 1e6:8.1f} MB",
        f"peak ratio {ratio:.2f}x   byte-identical: {identical}",
        f"blockwise peak bound {budget / 1e6:.1f} MB"
        " (8 B per text row + 2 x block budget)",
    ]
    save_report("sa_construction", "\n".join(lines))
    # Acceptance: the blockwise peak sits >=3x under the monolithic
    # oracle pipeline's and within its own bound, and the containers
    # match byte for byte.
    assert ratio >= 3.0
    assert report.peak_alloc_bytes <= budget
    assert identical
