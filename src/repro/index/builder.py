"""End-to-end index construction: the host-side steps of BWaveR.

The paper's workflow (§III-D, Fig. 4) has three steps; this module owns
the first two, which run on the host CPU:

1. **BWT and SA computation** — reference text → suffix array → BWT;
2. **BWT encoding** — BWT → wavelet tree of RRR sequences.

(The third step, sequence mapping, is :mod:`repro.mapper` /
:mod:`repro.fpga`.)

:func:`build_index` returns the finished :class:`~repro.index.fm_index.FMIndex`
together with a :class:`BuildReport` carrying per-step wall-clock times
and structure sizes — the exact quantities plotted in Figs. 5 and 6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..core.bwt_structure import BWTStructure
from ..core.rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR
from ..sequence.alphabet import encode
from ..sequence.bwt import BWT, bwt_from_codes, entropy0, run_length_stats
from ..sequence.sampled_sa import FullSA, SampledSA
from ..sequence.suffix_array import Method, suffix_array
from ..telemetry import get_telemetry
from .fm_index import FMIndex
from .ftab import Ftab
from .occ_table import OccTable

Backend = Literal["rrr", "occ"]
Locate = Literal["full", "sampled", "none"]


@dataclass
class BuildReport:
    """Timing and size breakdown of one index build.

    ``sa_bwt_seconds`` and ``encode_seconds`` correspond one-to-one to the
    paper's workflow steps 1 and 2; ``encode_seconds`` is the quantity of
    Fig. 6.
    """

    text_length: int
    b: int
    sf: int
    backend: str
    sa_bwt_seconds: float
    encode_seconds: float
    structure_bytes: int
    uncompressed_bytes: int
    bwt_entropy0: float
    bwt_runs: dict = field(default_factory=dict)
    #: K-mer jump-start table build time and footprint (0 when disabled).
    ftab_seconds: float = 0.0
    ftab_bytes: int = 0
    #: ``"monolithic"`` (in-RAM :func:`build_index`) or ``"blockwise"``
    #: (:func:`repro.index.build_stream.build_index_blockwise`).
    build_mode: str = "monolithic"
    #: Finer-grained wall seconds per pipeline stage (stage name -> s).
    stage_seconds: dict = field(default_factory=dict)
    #: tracemalloc peak of traced allocations during the build, when the
    #: builder was asked to measure it (0 otherwise).
    peak_alloc_bytes: int = 0
    #: True when a blockwise build continued from on-disk checkpoints.
    resumed: bool = False
    #: Bytes of the shared Global Rank Table counted in
    #: ``structure_bytes`` (one copy serves every RRR structure of a
    #: block size; 0 for the ``occ`` backend).
    shared_table_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """Structure size relative to the 1 byte/char representation."""
        if self.uncompressed_bytes == 0:
            return 0.0
        return self.structure_bytes / self.uncompressed_bytes

    @property
    def space_saving_percent(self) -> float:
        """The paper's "reducing the memory requirements up to X%" metric."""
        return 100.0 * (1.0 - self.compression_ratio)

    def size_summary(self) -> str:
        """``structure_bytes`` for a log line: the index's own bytes and
        their saving, then the shared table, which dominates below ~100
        kbp and would turn the saving negative if it were charged to one
        small index."""
        own = self.structure_bytes - self.shared_table_bytes
        if own < self.uncompressed_bytes:
            ratio = f"{100.0 * (1.0 - own / self.uncompressed_bytes):.1f}% saved vs 1 B/char"
        else:
            ratio = f"{own / max(1, self.uncompressed_bytes):.2f} B/char"
        shared = (
            f" + {self.shared_table_bytes:,} B shared rank table"
            if self.shared_table_bytes
            else ""
        )
        return f"structure: {own:,} B ({ratio}){shared}"


def build_index(
    text,
    b: int = DEFAULT_BLOCK_SIZE,
    sf: int = DEFAULT_SUPERBLOCK_FACTOR,
    backend: Backend = "rrr",
    locate: Locate = "full",
    sa_method: Method = "doubling",
    sa_sample_rate: int = 32,
    occ_checkpoint_words: int = 4,
    store_sentinel_in_tree: bool = False,
    ftab_k: int | None = None,
) -> tuple[FMIndex, BuildReport]:
    """Build a queryable index from a DNA string or code array.

    Parameters mirror the paper's tunables: ``b``/``sf`` control the RRR
    encoding (Figs. 5-7), ``backend`` selects succinct vs. checkpointed
    Occ (structure ablation), ``locate`` picks the host-side position
    store.  ``ftab_k`` additionally precomputes the k-mer jump-start
    table (:mod:`repro.index.ftab`, 4^k entries; Bowtie2's default order
    is 10) — queries then skip their first ``k`` backward-search steps
    with one table read, bit-identically.
    """
    codes = encode(text) if isinstance(text, str) else np.asarray(text, dtype=np.uint8)

    tel = get_telemetry()
    with tel.span("index.build", text_length=int(codes.size), b=b, sf=sf, backend=backend):
        t0 = time.perf_counter()
        with tel.span("index.sa_bwt", cat="index"):
            sa = suffix_array(codes, method=sa_method)
            bwt = bwt_from_codes(codes, sa=sa)
        t1 = time.perf_counter()

        with tel.span("index.encode", cat="index"):
            if backend == "rrr":
                struct = BWTStructure(
                    bwt,
                    b=b,
                    sf=sf,
                    store_sentinel_in_tree=store_sentinel_in_tree,
                )
            elif backend == "occ":
                struct = OccTable(bwt, checkpoint_words=occ_checkpoint_words)
            else:
                raise ValueError(f"unknown backend {backend!r}")
        t2 = time.perf_counter()

        if locate == "full":
            loc = FullSA(sa)
        elif locate == "sampled":
            loc = SampledSA(sa, k=sa_sample_rate)
        elif locate == "none":
            loc = None
        else:
            raise ValueError(f"unknown locate structure {locate!r}")

        ftab = None
        ftab_seconds = 0.0
        if ftab_k is not None:
            with tel.span("index.ftab", cat="index", k=ftab_k):
                t_ft = time.perf_counter()
                ftab = Ftab.build(struct, k=ftab_k)
                ftab_seconds = time.perf_counter() - t_ft

        index = FMIndex(struct, locate_structure=loc, ftab=ftab)
        sym = bwt.symbols_without_sentinel()
        report = BuildReport(
            text_length=int(codes.size),
            b=b,
            sf=sf,
            backend=backend,
            sa_bwt_seconds=t1 - t0,
            encode_seconds=t2 - t1,
            structure_bytes=struct.size_in_bytes(),
            shared_table_bytes=struct.size_in_bytes() - struct.size_in_bytes(include_shared=False),
            uncompressed_bytes=bwt.length,
            bwt_entropy0=entropy0(sym) if sym.size else 0.0,
            bwt_runs=run_length_stats(bwt),
            ftab_seconds=ftab_seconds,
            ftab_bytes=ftab.size_in_bytes() if ftab is not None else 0,
            stage_seconds={
                "sa_bwt": t1 - t0,
                "encode": t2 - t1,
                "ftab": ftab_seconds,
            },
        )
    m = tel.metrics
    m.counter("index_builds_total", "Index builds completed").inc()
    m.histogram(
        "index_build_stage_seconds",
        "Wall seconds per index build stage",
        labelnames=("stage",),
    ).observe(report.sa_bwt_seconds, stage="sa_bwt")
    m.histogram(
        "index_build_stage_seconds",
        "Wall seconds per index build stage",
        labelnames=("stage",),
    ).observe(report.encode_seconds, stage="encode")
    m.gauge(
        "index_structure_bytes", "Succinct structure size of the last build"
    ).set(report.structure_bytes)
    tel.log.info(
        "index.build.done",
        text_length=report.text_length,
        b=b,
        sf=sf,
        backend=backend,
        sa_bwt_seconds=report.sa_bwt_seconds,
        encode_seconds=report.encode_seconds,
        structure_bytes=report.structure_bytes,
    )
    return index, report


def encode_existing_bwt(
    bwt: BWT,
    b: int = DEFAULT_BLOCK_SIZE,
    sf: int = DEFAULT_SUPERBLOCK_FACTOR,
) -> tuple[BWTStructure, float]:
    """Step 2 alone: encode a precomputed BWT, returning (structure, seconds).

    This isolates exactly what Fig. 6 measures — the succinct-encoding
    time as a function of ``b`` and ``sf`` — without re-running suffix
    sorting.
    """
    t0 = time.perf_counter()
    struct = BWTStructure(bwt, b=b, sf=sf)
    return struct, time.perf_counter() - t0
