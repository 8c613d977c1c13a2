"""Ablation H: approximate-matching strategies (future work, §V).

The paper's future work is approximate string matching; its related work
notes that backtracking cost "grows exponentially with [the] number of
mismatches".  This bench compares the two implemented strategies for one
substitution, on identical mutated reads:

* **blind backtracking** (`mapper.mismatch`) — branch at every position;
* **pigeonhole bidirectional** (`index.bidirectional`) — anchor the
  error-free half exactly, branch only across the split.

Metric: wavelet-tree rank operations per read (the hardware-relevant
work unit), plus wall time.  Both must return identical position sets.
"""

import numpy as np
import pytest

from repro.bench.harness import get_reference
from repro.bench.reporting import render_table
from repro.core.counters import CounterScope
from repro.index.bidirectional import BidirectionalFMIndex
from repro.index.builder import build_index
from repro.io.readsim import mutate_reads, simulate_reads
from repro.mapper.mismatch import locate_with_mismatches

N_READS = 40
READ_LENGTH = 60


def bench_ablation_mismatch_strategies(benchmark, save_report):
    ref = get_reference("ecoli")[:60_000]  # trimmed: backtracking is pricey
    clean = simulate_reads(ref, N_READS, READ_LENGTH, mapping_ratio=1.0,
                           rc_fraction=0.0, seed=908).reads
    reads = mutate_reads(clean, substitutions=1, seed=909)

    plain, _ = build_index(ref, sf=50)
    bi = BidirectionalFMIndex(ref, sf=50)

    import time

    with CounterScope() as bt_scope:
        t0 = time.perf_counter()
        bt_hits = [
            sorted({p for p, _ in locate_with_mismatches(plain, r, 1)}) for r in reads
        ]
        bt_wall = time.perf_counter() - t0
    with CounterScope() as bi_scope:
        t0 = time.perf_counter()
        bi_hits = []
        for r in reads:
            ivs = bi.search_one_mismatch(r)
            bi_hits.append(sorted({int(p) for iv, _ in ivs for p in bi.locate(iv)}))
        bi_wall = time.perf_counter() - t0

    # Identical answers.
    assert bt_hits == bi_hits
    # Every mutated read recovered at its source locus.
    recovered = sum(1 for hits, c in zip(bi_hits, clean) if ref.find(c) in hits)
    assert recovered == N_READS

    bt_steps = bt_scope.delta["bs_steps"]
    bi_steps = bi_scope.delta["bs_steps"]
    bt_ranks = bt_scope.delta["wt_ranks"]
    bi_ranks = bi_scope.delta["wt_ranks"]
    rows = [
        [
            "backtracking (k=1)",
            f"{bt_steps / N_READS:,.0f}",
            f"{bt_ranks / N_READS:,.0f}",
            f"{bt_wall:.2f}s",
            "1x index",
        ],
        [
            "pigeonhole bidirectional",
            f"{bi_steps / N_READS:,.0f}",
            f"{bi_ranks / N_READS:,.0f}",
            f"{bi_wall:.2f}s",
            "2x index",
        ],
        [
            "ratio",
            f"{bt_steps / bi_steps:.1f}x fewer steps",
            f"{bt_ranks / bi_ranks:.1f}x ranks",
            "-",
            "-",
        ],
    ]
    text = render_table(
        ["strategy", "ext-steps / read", "wt-ranks / read", "wall (40 reads)", "memory"],
        rows,
        title=(
            "Ablation H — 1-mismatch strategies (identical results). "
            "Steps are the hardware pipeline's unit (rank queries within a "
            "step run in parallel units); ranks are the software cost."
        ),
    )
    save_report("ablation_mismatch", text)

    # The pigeonhole strategy does fewer extension steps (the hardware
    # metric) at the price of double index memory and costlier steps in
    # software (each bidirectional extension also counts smaller symbols).
    assert bi_steps < bt_steps
    assert bi.size_in_bytes() > plain.backend.size_in_bytes() * 1.5

    # Timed kernel: the bidirectional search on one read.
    benchmark(lambda: bi.search_one_mismatch(reads[0]))
