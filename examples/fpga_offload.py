#!/usr/bin/env python3
"""Offloading the mapping step to the simulated Alveo U200.

Demonstrates the hardware side of BWaveR: program the (simulated) card
with the succinct BWT structure, stream query batches through the
OpenCL-like runtime, and read modeled device time from profiling events —
the same measurement methodology as the paper's evaluation.  Also shows
the fixed-overhead amortization of Table II: per-read cost falls as the
batch grows.

Run:  python examples/fpga_offload.py
"""

from repro import Mapper, build_index
from repro.fpga import ALVEO_U200, FPGAAccelerator
from repro.io import E_COLI_LIKE, generate_reference, simulate_reads


def main() -> None:
    reference = generate_reference(E_COLI_LIKE, scale=0.02, seed=21)  # ~93 kbp
    index, report = build_index(reference, b=15, sf=50)
    print(f"reference {len(reference):,} bp -> structure "
          f"{report.structure_bytes / 1024:.0f} KiB "
          f"(device pool: {ALVEO_U200.on_chip_bytes / 1e6:.1f} MB)")

    accelerator = FPGAAccelerator.for_index(index)

    print("\nbatch-size sweep (fixed load overhead amortizes):")
    print(f"{'reads':>8} {'modeled ms':>11} {'load ms':>9} {'kernel us':>10} "
          f"{'us/read':>8} {'energy mJ':>10}")
    for n_reads in (100, 400, 1600):
        readset = simulate_reads(reference, n_reads, 35, mapping_ratio=0.8,
                                 seed=1000 + n_reads)
        run = accelerator.map_batch(readset.reads, batch_size=512)
        print(
            f"{n_reads:>8} {run.modeled_seconds * 1e3:>11.3f} "
            f"{run.modeled_load_seconds * 1e3:>9.3f} "
            f"{run.modeled_kernel_seconds * 1e6:>10.1f} "
            f"{run.modeled_seconds / n_reads * 1e6:>8.2f} "
            f"{run.energy_joules * 1e3:>10.2f}"
        )

    # Verify the device produced exactly the software mapper's answers.
    readset = simulate_reads(reference, 300, 35, mapping_ratio=0.8, seed=5000)
    hw = accelerator.map_batch(readset.reads)
    sw = Mapper(index, locate=False).map_reads(readset.reads)
    mismatches = sum(
        1
        for o, m in zip(hw.kernel_run.outcomes, sw)
        if (o.fwd_start, o.fwd_end, o.rc_start, o.rc_end)
        != (
            m.forward.interval.start,
            m.forward.interval.end,
            m.reverse.interval.start,
            m.reverse.interval.end,
        )
    )
    print(f"\nfunctional check vs software mapper: "
          f"{len(sw) - mismatches}/{len(sw)} identical interval sets")
    assert mismatches == 0

    # Host-side locate of the device's intervals (BWaveR's division of labor).
    first_hit = next(o for o in hw.kernel_run.outcomes if o.mapped)
    positions = index.locate_structure.locate_range(
        first_hit.fwd_start, first_hit.fwd_end, lf=index.backend.lf
    ) if first_hit.fwd_end > first_hit.fwd_start else []
    print(f"sample device interval resolved on host: query {first_hit.query_id} "
          f"-> positions {sorted(int(p) for p in positions)[:5]}")
    print(f"\nhost wall time of the functional simulation: "
          f"{hw.host_wall_seconds:.3f}s (not comparable to modeled device time)")


if __name__ == "__main__":
    main()
