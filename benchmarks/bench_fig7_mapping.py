"""Fig. 7 reproduction: mapping time vs mapping ratio.

Regenerates the figure's series — time to map a fixed read set against
the E. coli-like and Chr21-like references at mapping ratios 0-100 % for
several (b, sf), with the k-mer jump-start table off and on — and checks
the paper's three claims plus the table's speedup claim:

* mapping time grows with the mapping ratio (unmapped reads terminate
  the backward search early);
* mapping time is independent of the reference length (E. coli vs Chr21
  at the same ratio differ far less than the 8.6x length ratio);
* mapping time grows with sf (more class sums per rank);
* the jump-start table plus fused lo/hi kernels make the count-only
  search path at least 1.5x faster on unmapped-heavy input, without
  changing any interval.

Measured columns run a scaled read count; the modeled columns evaluate
the native-CPU and FPGA cost models at the paper's 240 k reads.  The
paper's claims are evaluated on the ftab-off rows (the figure's own
configuration); the ftab-on rows quantify the optimisation on top.
"""

import time

import numpy as np
import pytest

from repro.bench.harness import experiment_fig7, get_index, get_reference
from repro.bench.reporting import render_table
from repro.io.readsim import simulate_reads
from repro.mapper.batch import run_mapping_batch

RATIOS = (0.0, 0.25, 0.5, 0.75, 1.0)
CONFIGS = ((15, 50), (15, 100))
N_READS = 1200
READ_LENGTH = 100
FTAB_K = 10


@pytest.fixture(scope="module")
def fig7_rows():
    return experiment_fig7(
        configs=CONFIGS, ratios=RATIOS, n_reads=N_READS, read_length=READ_LENGTH,
        ftab_k=FTAB_K,
    )


def bench_fig7_mapping_time(benchmark, save_report, fig7_rows):
    rows = fig7_rows

    # Timed kernel: one measured mapping run at 100% ratio on E.coli.
    index, _ = get_index("ecoli", b=15, sf=50)
    index.backend.build_batch_cache()
    ref = get_reference("ecoli")
    reads = simulate_reads(ref, 300, READ_LENGTH, mapping_ratio=1.0, seed=4).reads
    benchmark(lambda: run_mapping_batch(index, reads, keep_results=False))

    text = render_table(
        [
            "profile",
            "b",
            "sf",
            "ftab",
            "ratio",
            "measured s (1.2k reads)",
            "steps/read",
            "modeled CPU ms (240k)",
            "modeled FPGA ms (240k)",
        ],
        [
            [
                r["profile"],
                r["b"],
                r["sf"],
                "on" if r["ftab"] else "off",
                f"{r['mapping_ratio']:.2f}",
                f"{r['measured_seconds']:.3f}",
                f"{r['bs_steps_per_read']:.1f}",
                f"{r['native_cpu_ms_240k']:.1f}",
                f"{r['fpga_ms_240k']:.1f}",
            ]
            for r in rows
        ],
        title="Fig. 7 — mapping time vs mapping ratio (240k reads modeled)",
    )
    save_report("fig7_mapping", text)

    by_key = {
        (r["profile"], r["b"], r["sf"], r["ftab"], r["mapping_ratio"]): r
        for r in rows
    }

    # Claim 1: work grows with mapping ratio (figure config: ftab off).
    for profile in ("ecoli", "chr21"):
        for b, sf in CONFIGS:
            series = [
                by_key[(profile, b, sf, False, x)]["bs_steps_per_read"]
                for x in RATIOS
            ]
            assert series == sorted(series), (profile, b, sf, series)
            assert series[-1] > 1.5 * series[0]

    # Claim 2: independence from reference length (same ratio, same config:
    # modeled times within 40% despite an ~8.6x reference length gap).
    for x in (0.5, 1.0):
        a = by_key[("ecoli", 15, 50, False, x)]["native_cpu_ms_240k"]
        c = by_key[("chr21", 15, 50, False, x)]["native_cpu_ms_240k"]
        assert abs(a - c) / max(a, c) < 0.4, (x, a, c)

    # Claim 3: larger sf costs more CPU time (more class-sum iterations).
    for profile in ("ecoli", "chr21"):
        t50 = by_key[(profile, 15, 50, False, 1.0)]["native_cpu_ms_240k"]
        t100 = by_key[(profile, 15, 100, False, 1.0)]["native_cpu_ms_240k"]
        assert t100 > t50, (profile, t50, t100)

    # Claim 4: the jump-start table strictly reduces modeled work at every
    # sampled point — same intervals, fewer executed steps.
    for key, off_row in by_key.items():
        profile, b, sf, use_ftab, x = key
        if use_ftab:
            continue
        on_row = by_key[(profile, b, sf, True, x)]
        assert on_row["bs_steps_per_read"] < off_row["bs_steps_per_read"], key
        assert on_row["native_cpu_ms_240k"] < off_row["native_cpu_ms_240k"], key
        assert on_row["fpga_ms_240k"] < off_row["fpga_ms_240k"], key


def bench_fig7_ftab_count_only(benchmark, save_report):
    """Count-only search throughput, jump-start table off vs on.

    Unmapped-heavy input is where the table bites: a random length-k
    suffix is almost surely absent, so one LUT probe replaces the whole
    emptying chain.  The acceptance bar is a >= 1.5x throughput gain on
    the count-only path with identical (start, end, steps) triples.
    """
    index_off, _ = get_index("ecoli", b=15, sf=50)
    index_on, _ = get_index("ecoli", b=15, sf=50, ftab_k=FTAB_K)
    index_off.backend.build_batch_cache()
    index_on.backend.build_batch_cache()
    ref = get_reference("ecoli")
    reads = simulate_reads(
        ref, N_READS, READ_LENGTH, mapping_ratio=0.0, seed=9
    ).reads

    # Bit-identity first — the speedup claim is void otherwise.
    lo_a, hi_a, st_a = index_off.search_batch(reads)
    lo_b, hi_b, st_b = index_on.search_batch(reads)
    assert np.array_equal(lo_a, lo_b)
    assert np.array_equal(hi_a, hi_b)
    assert np.array_equal(st_a, st_b)

    def best_of(index, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            index.search_batch(reads)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_off = best_of(index_off)
    t_on = best_of(index_on)
    speedup = t_off / t_on

    benchmark(lambda: index_on.search_batch(reads))

    text = render_table(
        ["path", "ftab", "best ms", "reads/s"],
        [
            ["search_batch (count-only)", "off", f"{t_off * 1e3:.2f}",
             f"{N_READS / t_off:.0f}"],
            ["search_batch (count-only)", "on", f"{t_on * 1e3:.2f}",
             f"{N_READS / t_on:.0f}"],
            ["speedup", "", f"{speedup:.2f}x", ""],
        ],
        title=(
            f"Count-only search, ftab k={FTAB_K}, {N_READS} unmapped reads "
            f"(bit-identical intervals)"
        ),
    )
    save_report("fig7_ftab_count_only", text)
    assert speedup >= 1.5, f"ftab count-only speedup {speedup:.2f}x < 1.5x"
