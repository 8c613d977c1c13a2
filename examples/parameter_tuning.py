#!/usr/bin/env python3
"""Tuning the RRR parameters: the space/time dial of Figs. 5-7.

The paper's structure is "parametrizable": block size ``b`` and
superblock factor ``sf`` trade memory against rank time ("the
possibility of controlling the memory/time behavior of the data
structure makes this encoding suitable for various applications, on
different platforms", §V).  This example sweeps the grid on one
reference and prints the trade-off table, plus the device-fit check the
hardware design cares about (does a chromosome-scale structure fit the
Alveo U200's on-chip memory?).

Run:  python examples/parameter_tuning.py
"""

import time

from repro import build_index
from repro.core.counters import CounterScope
from repro.fpga import ALVEO_U200, max_reference_bases
from repro.io import E_COLI_LIKE, generate_reference, simulate_reads
from repro.mapper.batch import run_mapping_batch


def main() -> None:
    reference = generate_reference(E_COLI_LIKE, scale=0.02, seed=41)  # ~93 kbp
    reads = simulate_reads(reference, 400, 80, mapping_ratio=0.8, seed=42).reads

    print(f"reference {len(reference):,} bp, 400 x 80 bp reads\n")
    print(f"{'b':>3} {'sf':>4} {'size KiB':>9} {'saving':>7} {'encode ms':>10} "
          f"{'map s':>7} {'class-iters/rank':>17}")

    results = []
    for b in (5, 10, 15):
        for sf in (25, 50, 100, 200):
            t0 = time.perf_counter()
            index, report = build_index(reference, b=b, sf=sf)
            index.backend.build_batch_cache()
            with CounterScope() as scope:
                run = run_mapping_batch(index, reads, keep_results=False)
            iters_per_rank = (
                scope.delta["class_sum_iterations"] / max(1, scope.delta["binary_ranks"])
            )
            results.append((b, sf, report, run, iters_per_rank))
            print(
                f"{b:>3} {sf:>4} {report.structure_bytes / 1024:>9.1f} "
                f"{report.space_saving_percent:>6.1f}% "
                f"{report.encode_seconds * 1e3:>10.1f} "
                f"{run.wall_seconds:>7.3f} {iters_per_rank:>17.1f}"
            )

    # The dial in one sentence: larger sf -> smaller structure but more
    # class-sum work per rank (the O(sf) of Algorithm 1).
    by_sf = {sf: it for b, sf, _, _, it in results if b == 15}
    assert by_sf[200] > by_sf[25]
    sizes = {sf: r.structure_bytes for b, sf, r, _, _ in results if b == 15}
    assert sizes[200] < sizes[25]
    print("\ntrend check: at b=15, sf 25->200 shrinks the structure "
          f"({sizes[25] / 1024:.0f} -> {sizes[200] / 1024:.0f} KiB) while "
          f"class-iterations/rank grow ({by_sf[25]:.1f} -> {by_sf[200]:.1f})")

    # Device fit: at the paper's deployed density, how big a reference
    # fits the U200's on-chip memory?
    best = min(
        (r for _, _, r, _, _ in results), key=lambda r: r.compression_ratio
    )
    density = best.structure_bytes / best.text_length
    capacity = max_reference_bases(ALVEO_U200, bytes_per_base=density)
    print(f"\nat {density:.3f} B/base, the Alveo U200 holds references up to "
          f"~{capacity / 1e6:.0f} Mbp (paper claims ~100 Mbp)")


if __name__ == "__main__":
    main()
