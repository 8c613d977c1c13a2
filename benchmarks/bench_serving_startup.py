"""Serving-path benches: index open, worker hand-off, pool throughput.

The zero-copy serving stack exists to kill two fixed costs the paper's
host pipeline pays per process: rebuilding the index structure on every
open, and re-shipping the whole structure to every worker.  These
benches put numbers on both — flat ``mmap`` open, shared-memory attach
vs pickle round-trip — and measure end-to-end pool throughput against
the single-process mapper.
"""

import pickle
import time

import numpy as np
import pytest

from repro.bench.harness import get_index, get_reference
from repro.bench.reporting import fmt_bytes, fmt_ratio, render_table
from repro.index.flat import (
    attach_index_from_buffer,
    export_index,
    flat_container_size,
    load_index_flat,
    pack_flat_into,
    save_index_flat,
)
from repro.io.readsim import simulate_reads
from repro.mapper.batch import run_mapping_batch
from repro.serving.pool import MapperPool
from repro.serving.shared import SharedIndexBlock, attach_index, release_attachment


@pytest.fixture(scope="module")
def serving_index():
    index, _ = get_index("ecoli")
    return index


@pytest.fixture(scope="module")
def flat_path(serving_index, tmp_path_factory):
    flat = tmp_path_factory.mktemp("serving") / "index.bwvr"
    save_index_flat(serving_index, flat)
    return flat


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_open_flat_mmap(benchmark, flat_path):
    benchmark(lambda: load_index_flat(flat_path))


def bench_startup_report(save_report, serving_index, flat_path):
    """One table: open, hand-off, and throughput — with acceptance gates."""
    t_flat = _best_of(lambda: load_index_flat(flat_path))

    # Worker hand-off: pickle-ship the index arrays and rebuild a private
    # copy (what an initargs-style worker pays) vs shared-memory attach
    # (what pool workers do now).
    meta, segments = export_index(serving_index)
    blob = pickle.dumps((meta, segments))

    def pickle_ship():
        m, segs = pickle.loads(blob)
        buf = np.zeros(flat_container_size(m, segs), dtype=np.uint8)
        pack_flat_into(buf, m, segs)
        attach_index_from_buffer(buf)

    t_pickle = _best_of(pickle_ship)
    with SharedIndexBlock(serving_index) as block:
        spec = block.spec

        def shm_attach():
            idx, handle = attach_index(spec)
            idx = None
            release_attachment(handle)

        t_attach = _best_of(shm_attach)

    # Pool throughput vs single process on the same read set.
    ref = get_reference("ecoli")
    reads = simulate_reads(ref, 600, 100, mapping_ratio=0.75, seed=17).reads
    solo = run_mapping_batch(serving_index, reads, keep_results=False)
    with MapperPool(serving_index, workers=2) as pool:
        pool.run_batch(reads)  # warm the task loop
        t0 = time.perf_counter()
        outcome = pool.run_batch(reads)
        t_pool = time.perf_counter() - t0

    def ms(t):
        return f"{t * 1e3:.3f} ms"

    rows = [
        ["open flat (mmap)", ms(t_flat), ""],
        ["hand-off: pickle-ship + rebuild", ms(t_pickle), "1.0x"],
        ["hand-off: shm attach", ms(t_attach), fmt_ratio(t_pickle / t_attach)],
        [
            f"map {len(reads)} reads, 1 proc",
            ms(solo.wall_seconds),
            f"{solo.n_reads / solo.wall_seconds:,.0f} reads/s",
        ],
        [
            f"map {len(reads)} reads, pool x2",
            ms(t_pool),
            f"{outcome.n_reads / t_pool:,.0f} reads/s",
        ],
        ["index size (flat, raw)", fmt_bytes(flat_path.stat().st_size), ""],
    ]
    text = render_table(
        ["path", "best time", "speed-up / rate"],
        rows,
        title="Serving startup — open, hand-off, pool throughput (ecoli profile)",
    )
    text += "\n(pool rate reflects this machine's core count; on one core the IPC overhead dominates)"
    save_report("serving_startup", text)

    # Acceptance: opening the file in place beats shipping and rebuilding
    # a private copy, and shared-memory attach beats pickle.
    assert t_flat < t_pickle, (t_flat, t_pickle)
    assert t_attach < t_pickle, (t_attach, t_pickle)
    assert outcome.n_reads == solo.n_reads
    assert outcome.op_counts == solo.op_counts
