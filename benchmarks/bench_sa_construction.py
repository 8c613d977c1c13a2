"""Suffix-array construction micro-benchmarks.

Two claims are pinned here:

* the vectorized SA-IS path (``suffix_array(..., method="sais")``, which
  now classifies types, names LMS substrings and recurses on numpy
  arrays) beats the legacy pure-Python list implementation it replaced;
* the out-of-core blockwise pipeline's construction throughput, on a
  scaled chr21 profile, alongside its peak-allocation ratio against the
  monolithic builder (the quantity gated by the bench platform's
  ``blockwise-build`` hot path).
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.bench.harness import get_reference
from repro.sequence.alphabet import encode
from repro.sequence.suffix_array import sais, suffix_array

SA_N = 60_000


@pytest.fixture(scope="module")
def sa_codes():
    rng = np.random.default_rng(55)
    return rng.integers(0, 4, SA_N).astype(np.uint8)


def bench_sais_numpy(benchmark, sa_codes):
    out = benchmark(lambda: suffix_array(sa_codes, method="sais"))
    assert out.size == SA_N + 1


def bench_sais_legacy_list(benchmark, sa_codes):
    s = [int(c) + 1 for c in sa_codes] + [0]

    def run():
        return sais(s, 5)

    out = benchmark(run)
    assert len(out) == SA_N + 1


def bench_sa_doubling(benchmark, sa_codes):
    out = benchmark(lambda: suffix_array(sa_codes, method="doubling"))
    assert out.size == SA_N + 1


def bench_sa_construction_report(save_report):
    """Render the SA micro table and the blockwise build comparison."""
    from repro.core.global_tables import get_global_tables
    from repro.index.build_stream import build_index_blockwise
    from repro.index.builder import build_index
    from repro.index.flat import save_index_flat
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(55)
    codes = rng.integers(0, 4, SA_N).astype(np.uint8)

    t0 = time.perf_counter()
    numpy_sa = suffix_array(codes, method="sais")
    t_numpy = time.perf_counter() - t0

    s = [int(c) + 1 for c in codes] + [0]
    t0 = time.perf_counter()
    legacy = sais(s, 5)
    t_legacy = time.perf_counter() - t0
    assert numpy_sa.tolist() == legacy

    # Blockwise build on the scaled chr21 profile: wall time and the
    # peak-allocation ratio against the monolithic builder.
    scale = 0.01
    ref = get_reference("chr21", scale=scale)
    get_global_tables(15)  # shared tables: keep out of both peaks
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tracemalloc.start()
        t0 = time.perf_counter()
        index, _ = build_index(ref)
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

    lines = [
        "SA construction / out-of-core build micro-bench",
        "=" * 60,
        f"n = {SA_N:,} codes (uniform ACGT, seed 55)",
        f"{'sais (numpy)':24s} {t_numpy * 1e3:10.1f} ms",
        f"{'sais (legacy list)':24s} {t_legacy * 1e3:10.1f} ms"
        f"   ({t_legacy / t_numpy:.2f}x slower)",
        "",
        f"chr21 profile @ {scale} = {len(ref):,} bp",
        f"{'monolithic build+save':24s} {t_mono:10.2f} s"
        f"   peak {mono_peak / 1e6:8.1f} MB",
        f"{'blockwise build':24s} {t_blk:10.2f} s"
        f"   peak {report.peak_alloc_bytes / 1e6:8.1f} MB",
        f"peak ratio {ratio:.2f}x   byte-identical: {identical}",
    ]
    save_report("sa_construction", "\n".join(lines))
    # Acceptance: the numpy SA-IS path beats the list implementation,
    # the blockwise peak sits >=3x under the monolithic one, and the
    # containers match byte for byte.
    assert t_numpy < t_legacy
    assert ratio >= 3.0
    assert identical
