"""Ablation D: the separate-`$`-position optimization.

Paper §III-B: "instead of storing the special character `$` in the
wavelet tree, we store its BWT position in a separate variable, which is
checked in the backward search function to adjust the rank queries."

This bench compares the optimized four-symbol structure against the
naive five-symbol variant (`$` inside the tree): tree depth, structure
size, rank work per query, and — crucially — identical mapping results.
"""

import pytest

from repro.bench.harness import _reference_bwt, get_reference
from repro.bench.reporting import fmt_bytes, render_table
from repro.core.bwt_structure import BWTStructure
from repro.core.counters import CounterScope
from repro.index.fm_index import FMIndex
from repro.io.readsim import simulate_reads
from repro.io.refgen import DEFAULT_SCALE
from repro.mapper.batch import run_mapping_batch


def bench_ablation_dollar_position(benchmark, save_report):
    bwt = _reference_bwt("ecoli", DEFAULT_SCALE, 7)
    ref = get_reference("ecoli")
    reads = simulate_reads(ref, 400, 50, mapping_ratio=0.75, seed=903).reads

    variants = {}
    for name, in_tree in (("separate $ (paper)", False), ("$ in tree", True)):
        struct = BWTStructure(bwt, b=15, sf=50, store_sentinel_in_tree=in_tree)
        struct.build_batch_cache()
        index = FMIndex(struct, locate_structure=None)
        with CounterScope() as scope:
            report = run_mapping_batch(index, reads, keep_results=True)
        variants[name] = (struct, report, scope.delta)

    rows = []
    for name, (struct, report, delta) in variants.items():
        rows.append(
            [
                name,
                struct.tree.depth(),
                len(struct.tree.nodes()),
                fmt_bytes(struct.size_in_bytes(include_shared=False)),
                delta["binary_ranks"],
                f"{report.mapping_ratio:.2f}",
            ]
        )
    text = render_table(
        ["variant", "tree depth", "nodes", "size (no shared)", "binary ranks", "ratio"],
        rows,
        title="Ablation D — $ stored separately vs inside the wavelet tree",
    )
    save_report("ablation_dollar", text)

    opt_struct, opt_report, opt_delta = variants["separate $ (paper)"]
    raw_struct, raw_report, raw_delta = variants["$ in tree"]

    # Identical results.
    for a, b in zip(opt_report.results, raw_report.results):
        assert (a.forward.count, a.reverse.count) == (b.forward.count, b.reverse.count)

    # The optimization keeps the tree at depth 2 and strictly smaller.
    assert opt_struct.tree.depth() == 2 and raw_struct.tree.depth() == 3
    assert opt_struct.size_in_bytes(include_shared=False) < raw_struct.size_in_bytes(
        include_shared=False
    )
    # And it issues no more binary ranks per query.
    assert opt_delta["binary_ranks"] <= raw_delta["binary_ranks"]

    # Timed kernel: the paper's variant.
    index = FMIndex(opt_struct, locate_structure=None)
    benchmark(lambda: run_mapping_batch(index, reads[:150], keep_results=False))
