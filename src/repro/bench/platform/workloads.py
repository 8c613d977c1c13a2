"""Registered workloads: the measurable kernels behind every experiment.

A workload owns its substrate (reference, index, container, published
block) and exposes a single timed operation.  The dispatcher times
``run_once`` with ``time.perf_counter`` — workloads never time
themselves — and persists whatever auxiliary metrics ``run_once``
returns next to the wall clock.

The four *named hot paths* the regression gate watches are all here:

========================  ====================================================
``count_only_mapping``    ftab-primed ``search_batch`` over unmapped-heavy
                          reads (PR 5's 1.97x claim)
``flat_open``             zero-copy ``mmap`` open of a flat container
                          (PR 3's ~105x claim)
``pool_attach``           shared-memory attach of a published index
``occ2_fused``            fused lo/hi Occ kernel, 4 symbols × query bounds
========================  ====================================================

plus ``pool_mapping`` (end-to-end batch through the shared-memory
:class:`~repro.serving.pool.MapperPool`) and ``fpga_mapping`` (the
simulated accelerator, optionally under a fault plan, so degraded runs
land in the trajectory with their fault-ladder counters attached).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

import numpy as np

from ..fixtures import make_dna, seeded_reads
from .configs import ExperimentConfig

WORKLOADS: dict[str, Callable[[ExperimentConfig], "Workload"]] = {}


class WorkloadError(KeyError):
    """Unknown workload name."""


def register(name: str):
    def deco(cls):
        cls.workload_name = name
        WORKLOADS[name] = cls
        return cls
    return deco


def create_workload(config: ExperimentConfig) -> "Workload":
    try:
        cls = WORKLOADS[config.workload]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {config.workload!r}; have {sorted(WORKLOADS)}"
        ) from None
    return cls(config)


class Workload:
    """Base workload: build substrate in ``setup``, measure ``run_once``."""

    workload_name = "?"
    #: Set by pooled workloads; the dispatcher then builds a MapperPool
    #: around :meth:`pool_index` and assigns it to ``self.pool``.
    needs_pool = False
    #: The dispatcher calls ``run_once`` this many times inside one timed
    #: trial and records elapsed / inner_loop, so sub-millisecond kernels
    #: amortize timer and scheduler jitter while keeping per-op units.
    inner_loop = 1

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.params = config.param_dict
        self.pool = None

    def setup(self, scratch: Path) -> None:  # pragma: no cover - trivial default
        pass

    def pool_index(self):
        raise NotImplementedError(f"{self.workload_name} does not run pooled")

    def run_once(self) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:  # pragma: no cover - trivial default
        pass


# -- substrate scales --------------------------------------------------------

#: (reference bases, n_reads, read length, ftab k) per scale.  ``medium``
#: uses the ecoli profile reference, matching the legacy bench scripts.
_MAPPING_SCALES = {
    "tiny": (5_000, 100, 50, 6),
    "small": (50_000, 400, 100, 8),
    "medium": (None, 1_200, 100, 10),
}

_OCC_SCALES = {"tiny": 20_000, "small": 100_000, "medium": 250_000}
_OCC_QUERIES = {"tiny": 500, "small": 2_000, "medium": 2_000}


def _reference_for(scale: str, seed: int) -> str:
    n_bases, _, _, _ = _MAPPING_SCALES[scale]
    if n_bases is None:
        from ..harness import get_reference

        return get_reference("ecoli", seed=seed)
    return make_dna(n_bases, seed=seed)


def _built_index(scale: str, seed: int, backend: str, ftab_k: int | None):
    from ...index.builder import build_index

    ref = _reference_for(scale, seed)
    index, _ = build_index(ref, b=15, sf=50, backend=backend, ftab_k=ftab_k)
    return ref, index


@register("count_only_mapping")
class CountOnlyMapping(Workload):
    """Ftab-primed count-only batch search over unmapped-heavy reads."""

    def setup(self, scratch: Path) -> None:
        scale, seed = self.config.scale, self.config.seed
        _, n_reads, read_len, default_k = _MAPPING_SCALES[scale]
        ftab_k = int(self.params.get("ftab_k", default_k))
        if not self.params.get("ftab", True):
            ftab_k = None
        ref, self.index = _built_index(scale, seed, self.config.backend, ftab_k)
        self.index.backend.build_batch_cache()
        ratio = float(self.params.get("mapping_ratio", 0.0))
        self.reads = seeded_reads(ref, n_reads, read_len, ratio, seed=seed)

    def run_once(self) -> dict:
        lo, hi, steps = self.index.search_batch(self.reads)
        return {
            "reads": len(self.reads),
            "bs_steps": int(np.asarray(steps).sum()),
            "hits": int((np.asarray(hi) > np.asarray(lo)).sum()),
        }


@register("flat_open")
class FlatOpen(Workload):
    """O(1) mmap open of a flat container (vs the old decompress path)."""

    inner_loop = 10

    def setup(self, scratch: Path) -> None:
        from ...index.flat import save_index_flat

        _, self._index = _built_index("tiny" if self.config.scale == "tiny" else "small",
                                      self.config.seed, self.config.backend, None)
        self.path = scratch / "index.bwvr"
        save_index_flat(self._index, self.path)
        self.container_bytes = self.path.stat().st_size

    def run_once(self) -> dict:
        from ...index.flat import load_index_flat

        index = load_index_flat(self.path)
        n_rows = index.n_rows
        del index
        return {"container_bytes": self.container_bytes, "n_rows": n_rows}


@register("pool_attach")
class PoolAttach(Workload):
    """Shared-memory attach + release against a published index block."""

    inner_loop = 10

    def setup(self, scratch: Path) -> None:
        from ...serving.shared import SharedIndexBlock

        _, index = _built_index("tiny" if self.config.scale == "tiny" else "small",
                                self.config.seed, self.config.backend, None)
        self.block = SharedIndexBlock(index)
        self.spec = self.block.spec

    def run_once(self) -> dict:
        from ...serving.shared import attach_index, release_attachment

        index, handle = attach_index(self.spec)
        n_rows = index.n_rows
        index = None
        release_attachment(handle)
        return {"n_rows": n_rows}

    def teardown(self) -> None:
        self.block.close()
        self.block.unlink()


@register("occ2_fused")
class Occ2Fused(Workload):
    """Fused lo/hi Occ descent: 4 symbols × N query-bound pairs."""

    def setup(self, scratch: Path) -> None:
        from ...core.bwt_structure import BWTStructure
        from ...sequence.bwt import bwt_from_string

        scale, seed = self.config.scale, self.config.seed
        text = make_dna(_OCC_SCALES[scale], seed=seed)
        self.structure = BWTStructure(bwt_from_string(text), b=15, sf=50)
        self.structure.build_batch_cache()
        rng = np.random.default_rng(seed + 3)
        n = self.structure.n_rows
        n_q = _OCC_QUERIES[scale]
        self.plo = rng.integers(0, n + 1, n_q)
        self.phi = rng.integers(0, n + 1, n_q)

    def run_once(self) -> dict:
        out = [self.structure.occ2_many(a, self.plo, self.phi) for a in range(4)]
        return {"queries": 4 * len(self.plo), "checksum": int(out[0][0].sum())}


@register("pool_mapping")
class PoolMapping(Workload):
    """End-to-end batch through the shared-memory MapperPool."""

    needs_pool = True

    def setup(self, scratch: Path) -> None:
        scale, seed = self.config.scale, self.config.seed
        _, n_reads, read_len, _ = _MAPPING_SCALES[scale]
        ref, self._index = _built_index(scale, seed, self.config.backend, None)
        ratio = float(self.params.get("mapping_ratio", 0.75))
        self.reads = seeded_reads(ref, n_reads, read_len, ratio, seed=seed)

    def pool_index(self):
        return self._index

    def run_once(self) -> dict:
        outcome = self.pool.run_batch(self.reads)
        return {
            "reads": outcome.n_reads,
            "mapped": outcome.mapped,
            "bs_steps": outcome.op_counts.get("bs_steps", 0),
        }


class _ConcurrentRequestBase(Workload):
    """Shared substrate for the coalescing ablation pair: N concurrent
    small requests (``n_requests`` × ``reads_per_request``) against one
    batch-cached index.

    Registered as two distinct workload names (not one name with a
    toggle param) so the gate's per-workload sample filter never mixes
    on/off trials into one bimodal distribution.
    """

    def setup(self, scratch: Path) -> None:
        scale, seed = self.config.scale, self.config.seed
        _, _, read_len, default_k = _MAPPING_SCALES[scale]
        n_requests = int(self.params.get("n_requests", 32))
        reads_per_request = int(self.params.get("reads_per_request", 16))
        ref, self.index = _built_index(scale, seed, self.config.backend, default_k)
        self.index.backend.build_batch_cache()
        ratio = float(self.params.get("mapping_ratio", 0.75))
        flat = seeded_reads(
            ref, n_requests * reads_per_request, read_len, ratio, seed=seed
        )
        self.requests = [
            flat[i * reads_per_request : (i + 1) * reads_per_request]
            for i in range(n_requests)
        ]
        from ...mapper.mapper import Mapper

        self.mapper = Mapper(self.index, locate=False)

    def _aux(self, outs: list) -> dict:
        return {
            "requests": len(self.requests),
            "reads": sum(len(r) for r in self.requests),
            "mapped": sum(1 for rs in outs for r in rs if r.mapped),
        }


@register("coalesced_mapping")
class CoalescedMapping(_ConcurrentRequestBase):
    """The N requests merged into shared kernel batches by the coalescer.

    Uses the synchronous ``map_many`` entry point — the same merge →
    dispatch → demux code the live flusher runs, without the wait window
    — so the trial measures batching benefit, not timer sleep.
    """

    def setup(self, scratch: Path) -> None:
        super().setup(scratch)
        from ...serving.coalescer import CoalescerConfig, RequestCoalescer

        max_batch = int(self.params.get("max_batch_reads", 512))
        self.coalescer = RequestCoalescer(
            self.mapper.map_reads,
            config=CoalescerConfig(max_batch_reads=max_batch),
        )
        # One threaded pass through the live windowed path, outside the
        # timed region, to record the p95 added latency a real concurrent
        # client would see (the acceptance bound: p95 added wait <=
        # window; ``wait_p95_ms`` additionally carries the raw queue
        # wait including head-of-line time at saturation).
        self.wait_p95_ms = 0.0
        self.added_wait_p95_ms = self._measure_wait_p95()

    def _measure_wait_p95(self) -> float:
        import threading

        from ...serving.coalescer import CoalescerConfig, RequestCoalescer

        window_ms = float(self.params.get("window_ms", 2.0))
        live = RequestCoalescer(
            self.mapper.map_reads,
            config=CoalescerConfig(
                window_seconds=window_ms / 1e3,
                max_batch_reads=int(self.params.get("max_batch_reads", 512)),
            ),
        )
        try:
            threads = [
                threading.Thread(target=live.map_reads, args=(reads,))
                for reads in self.requests
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = live.stats()
            self.wait_p95_ms = float(stats["wait_p95_ms"])
            return float(stats["added_wait_p95_ms"])
        finally:
            live.close()

    def run_once(self) -> dict:
        before = self.coalescer.stats()["batches_total"]
        outs = self.coalescer.map_many(self.requests)
        aux = self._aux(outs)
        aux["wait_p95_ms"] = self.wait_p95_ms
        aux["added_wait_p95_ms"] = self.added_wait_p95_ms
        aux["batches"] = self.coalescer.stats()["batches_total"] - before
        return aux

    def teardown(self) -> None:
        self.coalescer.close()


@register("uncoalesced_mapping")
class UncoalescedMapping(_ConcurrentRequestBase):
    """Ablation control: every request dispatched alone, in order."""

    def run_once(self) -> dict:
        outs = [self.mapper.map_reads(reads) for reads in self.requests]
        return self._aux(outs)


@register("sharded_mapping")
class ShardedMapping(Workload):
    """Scatter-gather fan-out across a shard catalog (the router tier).

    The reference is split into ``n_shards`` contiguous chunks, each
    indexed into its own flat container and registered with a
    :class:`~repro.serving.router.ShardCatalog`; the timed operation is
    one :meth:`~repro.serving.router.ShardRouter.map_reads` batch over
    reads drawn from every shard.  Default is all shards resident and
    in-process (the gated hot path); ``memory_budget_mb`` squeezes the
    catalog into LRU waves and ``shard_workers`` runs each shard behind
    its own MapperPool.
    """

    def setup(self, scratch: Path) -> None:
        from ...index.builder import build_index
        from ...index.flat import save_index_flat
        from ...serving.router import ShardCatalog, ShardRouter

        scale, seed = self.config.scale, self.config.seed
        _, n_reads, read_len, _ = _MAPPING_SCALES[scale]
        n_shards = int(self.params.get("n_shards", 4))
        ref = _reference_for(scale, seed)
        step = max(read_len, len(ref) // n_shards)
        chunks = [
            c for c in (ref[i * step : (i + 1) * step] for i in range(n_shards))
            if len(c) >= read_len
        ]
        ratio = float(self.params.get("mapping_ratio", 0.75))
        per_shard = max(1, n_reads // len(chunks))
        self.catalog = ShardCatalog(
            pool_workers=int(self.params.get("shard_workers", 0))
        )
        self.reads: list[str] = []
        for i, chunk in enumerate(chunks):
            index, _ = build_index(
                chunk, b=15, sf=50, backend=self.config.backend, locate="full"
            )
            path = scratch / f"shard{i}.bwvr"
            save_index_flat(index, path)
            self.catalog.register(f"shard{i}", path)
            self.reads.extend(
                seeded_reads(chunk, per_shard, read_len, ratio, seed=seed + i)
            )
        budget_mb = float(self.params.get("memory_budget_mb", 0.0))
        if budget_mb:
            self.catalog.memory_budget_bytes = int(budget_mb * 1024 * 1024)
        self.router = ShardRouter(self.catalog)

    def run_once(self) -> dict:
        out = self.router.map_reads(self.reads)
        return {
            "reads": len(out),
            "shards": len(self.catalog),
            "mapped": sum(1 for m in out if m.mapped),
            "hits": sum(len(m.hits) for m in out),
            "evictions": self.catalog.evictions,
        }

    def teardown(self) -> None:
        self.catalog.close()


@register("fpga_mapping")
class FpgaMapping(Workload):
    """Simulated accelerator run; ``faults`` param exercises the ladder.

    Persisting these trials with their fault counters lets the report
    correlate perf deltas with degraded (CPU-fallback) runs instead of
    mistaking a ladder engagement for a code regression.
    """

    def setup(self, scratch: Path) -> None:
        from ...fpga.accelerator import FPGAAccelerator

        scale, seed = self.config.scale, self.config.seed
        _, n_reads, read_len, _ = _MAPPING_SCALES[scale]
        ref, index = _built_index(scale, seed, self.config.backend, None)
        ratio = float(self.params.get("mapping_ratio", 0.75))
        self.reads = seeded_reads(ref, n_reads, read_len, ratio, seed=seed)
        fault_spec = str(self.params.get("faults", ""))
        fault_plan = None
        if fault_spec:
            from ...faults import FaultPlan

            fault_plan = FaultPlan.from_spec(fault_spec, seed=seed)
        self.accelerator = FPGAAccelerator.for_index(index, fault_plan=fault_plan)

    def run_once(self) -> dict:
        run = self.accelerator.map_batch(self.reads)
        return {
            "reads": run.n_reads,
            "modeled_seconds": run.modeled_seconds,
            "degraded": int(run.degraded),
            "retries": run.retries,
            "reprograms": run.reprograms,
        }


#: Fraction of the chr21 profile per scale.  The block budget is scaled
#: by the same fraction so each run exercises the same blocks-per-
#: reference ratio the 64 MB default gives against the full chromosome.
_BUILD_SCALES = {"tiny": 0.00025, "small": 0.0025, "medium": 0.01}


@register("blockwise_build")
class BlockwiseBuild(Workload):
    """Out-of-core blockwise index build over a chr21-profile reference.

    The untimed setup builds the index once monolithically and once
    blockwise with ``tracemalloc`` armed, recording the peak-allocation
    ratio and verifying the two flat containers are byte-identical; every
    timed trial is then one cold blockwise build into scratch.  The
    ratio/identity facts ride along in the per-trial metrics, so the
    store and the report keep them next to every timed build.
    """

    def setup(self, scratch: Path) -> None:
        import tracemalloc

        from ...core.global_tables import get_global_tables
        from ...index.build_stream import build_index_blockwise
        from ...index.builder import build_index
        from ...index.flat import save_index_flat
        from ..harness import get_reference

        scale_frac = _BUILD_SCALES[self.config.scale]
        self.ref = get_reference("chr21", scale=scale_frac, seed=self.config.seed)
        self.scratch = scratch
        self.block_mb = float(self.params.get("block_mb", 64.0 * scale_frac))
        # The RRR rank tables are process-wide singletons; build them
        # outside both traced windows so neither peak charges for them.
        get_global_tables(15)
        mono_path = scratch / "mono.bwvr"
        was_tracing = tracemalloc.is_tracing()
        if was_tracing:
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
        index, _ = build_index(self.ref, backend=self.config.backend)
        save_index_flat(index, mono_path)
        self.mono_peak = int(tracemalloc.get_traced_memory()[1])
        if not was_tracing:
            tracemalloc.stop()
        del index
        blk_path = scratch / "blk.bwvr"
        report = build_index_blockwise(
            self.ref,
            blk_path,
            backend=self.config.backend,
            block_mb=self.block_mb,
            measure_peak=True,
        )
        self.blockwise_peak = int(report.peak_alloc_bytes)
        self.byte_identical = mono_path.read_bytes() == blk_path.read_bytes()
        self.peak_ratio = (
            self.mono_peak / self.blockwise_peak if self.blockwise_peak else 0.0
        )
        blk_path.unlink()
        mono_path.unlink()
        self._trial = 0

    def run_once(self) -> dict:
        from ...index.build_stream import build_index_blockwise

        out = self.scratch / f"trial{self._trial}.bwvr"
        self._trial += 1
        report = build_index_blockwise(
            self.ref, out, backend=self.config.backend, block_mb=self.block_mb
        )
        out.unlink(missing_ok=True)
        return {
            "n_bases": len(self.ref),
            "structure_bytes": report.structure_bytes,
            "byte_identical": int(self.byte_identical),
            "peak_ratio": self.peak_ratio,
            "mono_peak_bytes": self.mono_peak,
            "blockwise_peak_bytes": self.blockwise_peak,
        }


def warm_clock() -> float:
    """One throwaway clock read so the first trial doesn't pay TSC setup."""
    return time.perf_counter()
