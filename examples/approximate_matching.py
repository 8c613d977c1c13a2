#!/usr/bin/env python3
"""Approximate matching: the paper's future work, three ways.

BWaveR §V: "Future work involves to extend our mapping design to
approximate string matching."  This repository implements that extension
along the three designs the paper's context suggests, demonstrated here
on the same mutated read set:

1. **bounded backtracking** (`mapper.mismatch`) — the textbook modified
   backward search the paper's §II describes (cost exponential in k);
2. **pigeonhole over a bidirectional index** (`index.bidirectional`) —
   the 2BWT strategy: anchor the error-free half exactly, branch only
   across the split;
3. **two-pass runtime reconfiguration** (`fpga.reconfig`) — Arram et
   al.'s architecture: exact pass for everyone, reconfigure the fabric,
   rescue only the unmapped remainder.

Run:  python examples/approximate_matching.py
"""

import time

from repro import build_index
from repro.core.counters import CounterScope
from repro.fpga.reconfig import TwoPassAccelerator
from repro.index.bidirectional import BidirectionalFMIndex
from repro.io import E_COLI_LIKE, generate_reference, mutate_reads, simulate_reads
from repro.mapper.mismatch import locate_with_mismatches


def main() -> None:
    reference = generate_reference(E_COLI_LIKE, scale=0.008, seed=81)  # ~37 kbp
    clean = simulate_reads(reference, 60, 50, mapping_ratio=1.0,
                           rc_fraction=0.0, seed=82).reads
    reads = mutate_reads(clean, substitutions=1, seed=83)
    truth = [reference.find(c) for c in clean]
    print(f"{len(reads)} reads of 50 bp, each carrying exactly one substitution\n")

    index, _ = build_index(reference, sf=50)

    # 1. Bounded backtracking.
    with CounterScope() as scope:
        t0 = time.perf_counter()
        found_bt = sum(
            1
            for read, pos in zip(reads, truth)
            if pos in [p for p, _ in locate_with_mismatches(index, read, 1)]
        )
        wall_bt = time.perf_counter() - t0
    steps_bt = scope.delta["bs_steps"]
    print(f"1. backtracking:   {found_bt}/{len(reads)} recovered, "
          f"{steps_bt / len(reads):,.0f} extension steps/read, {wall_bt:.2f}s")

    # 2. Pigeonhole bidirectional.
    bi = BidirectionalFMIndex(reference, sf=50)
    with CounterScope() as scope:
        t0 = time.perf_counter()
        found_bi = 0
        for read, pos in zip(reads, truth):
            hits = bi.search_one_mismatch(read)
            positions = {int(p) for iv, _ in hits for p in bi.locate(iv)}
            if pos in positions:
                found_bi += 1
        wall_bi = time.perf_counter() - t0
    steps_bi = scope.delta["bs_steps"]
    print(f"2. pigeonhole 2BWT: {found_bi}/{len(reads)} recovered, "
          f"{steps_bi / len(reads):,.0f} extension steps/read, {wall_bi:.2f}s "
          f"({steps_bt / steps_bi:.1f}x fewer steps, 2x index memory)")

    # 3. Two-pass reconfiguration (modeled device time).
    acc = TwoPassAccelerator(index.backend, k=1)
    run = acc.map_batch(reads)
    print(f"3. two-pass FPGA:  exact {run.exact_mapped} + rescued {run.rescued} "
          f"= {run.total_mapped}/{run.n_reads}")
    print(f"   modeled: pass1 {run.pass1_seconds * 1e3:.1f} ms + "
          f"reconfig {run.reconfig_seconds * 1e3:.1f} ms + "
          f"pass2 {run.pass2_seconds * 1e3:.2f} ms "
          f"-> accuracy {run.exact_only_accuracy:.0%} -> {run.two_pass_accuracy:.0%}")

    assert found_bt == found_bi == len(reads)
    assert run.two_pass_accuracy >= 0.98


if __name__ == "__main__":
    main()
