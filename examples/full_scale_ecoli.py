#!/usr/bin/env python3
"""Paper-scale run: the complete 4.64 Mbp E. coli-like genome.

Every other example scales the reference down; this one runs the
pipeline at the paper's actual E. coli size, measuring the Fig. 5 anchor
directly and producing a Table-I-shaped report from a 20 k-read sample
(modeled at 100 M reads).  Takes ~30 s of pure Python.

Pass ``--chr21`` to additionally build the 40 Mbp Chr21-like reference
(several minutes and ~3 GB of RAM for suffix sorting).

Run:  python examples/full_scale_ecoli.py
"""

import sys
import time

from repro.bench.calibration import DEFAULT_CPU_MODEL, PAPER_FIG5, PAPER_TABLE1
from repro.core.bwt_structure import BWTStructure
from repro.core.counters import CounterScope
from repro.fpga.cost_model import DEFAULT_COST_MODEL
from repro.fpga.power import DEFAULT_POWER_MODEL
from repro.index.builder import build_index
from repro.index.fm_index import FMIndex
from repro.io.readsim import simulate_reads
from repro.io.refgen import CHR21_LIKE, E_COLI_LIKE, generate_reference
from repro.sequence.alphabet import encode
from repro.sequence.bwt import bwt_from_codes
from repro.sequence.sampled_sa import FullSA


def build(profile, name):
    t0 = time.time()
    ref = generate_reference(profile, scale=1.0, seed=7)
    print(f"{name}: generated {len(ref):,} bp in {time.time() - t0:.1f}s")
    t0 = time.time()
    codes = encode(ref)
    # The builder's bounded-memory suffix sort (a full-locate index keeps it).
    sa = build_index(codes)[0].locate_structure.sa
    bwt = bwt_from_codes(codes, sa=sa)
    print(f"{name}: SA + BWT in {time.time() - t0:.1f}s")
    return ref, bwt, bwt.sa


def main() -> None:
    ref, bwt, sa = build(E_COLI_LIKE, "ecoli")

    # Fig. 5 anchor at true scale.
    for sf in (50, 100):
        t0 = time.time()
        struct = BWTStructure(bwt, b=15, sf=sf)
        print(
            f"  b=15 sf={sf}: {struct.size_in_bytes() / 1e6:.2f} MB "
            f"(encoded in {time.time() - t0:.2f}s) — paper anchor "
            f"{PAPER_FIG5['ecoli']['b15_sf100_mb']} MB at sf=100, "
            f"uncompressed {PAPER_FIG5['ecoli']['uncompressed_mb']} MB"
        )

    # A Table-I-shaped sample at true scale.
    struct = BWTStructure(bwt, b=15, sf=50)
    struct.build_batch_cache()
    index = FMIndex(struct, locate_structure=FullSA(sa))
    reads = simulate_reads(ref, 20_000, 35, mapping_ratio=0.75, seed=7001).reads
    with CounterScope() as scope:
        t0 = time.time()
        lo, hi, steps = index.search_batch(reads)
        wall = time.time() - t0
    print(f"\nmapped 20k x 35bp sample in {wall:.1f}s Python "
          f"({20_000 / wall:,.0f} reads/s measured)")

    n_paper = 100_000_000
    scale_up = n_paper / len(reads)
    cpu_counts = {k: int(v * scale_up) for k, v in scope.delta.items()}
    cpu_s = DEFAULT_CPU_MODEL.seconds(cpu_counts)
    hw_steps = int(steps.sum() / 2 * scale_up)  # dual pipelines
    fpga_s = DEFAULT_COST_MODEL.run_seconds(struct.size_in_bytes(), hw_steps, n_paper)
    print(f"modeled at 100M reads: CPU {cpu_s * 1e3:,.0f} ms "
          f"(paper {PAPER_TABLE1['times_ms']['bwaver_cpu']:,} ms), "
          f"FPGA {fpga_s * 1e3:,.0f} ms "
          f"(paper {PAPER_TABLE1['times_ms']['fpga']:,} ms)")
    print(f"speed-up {DEFAULT_POWER_MODEL.speedup_vs_fpga(cpu_s, fpga_s):.1f}x "
          f"(paper {PAPER_TABLE1['speedup_vs_fpga']['bwaver_cpu']}x), "
          f"power efficiency "
          f"{DEFAULT_POWER_MODEL.efficiency_vs_fpga(cpu_s, fpga_s):.0f}x "
          f"(paper {PAPER_TABLE1['power_efficiency_vs_fpga']['bwaver_cpu']}x)")

    if "--chr21" in sys.argv:
        ref_c, bwt_c, _ = build(CHR21_LIKE, "chr21")
        struct_c = BWTStructure(bwt_c, b=15, sf=100)
        print(f"  chr21 b=15 sf=100: {struct_c.size_in_bytes() / 1e6:.2f} MB "
              f"— paper anchor {PAPER_FIG5['chr21']['b15_sf100_mb']} MB, "
              f"uncompressed {PAPER_FIG5['chr21']['uncompressed_mb']} MB")


if __name__ == "__main__":
    main()
