"""Experiment harness: one function per figure/table of the paper.

Every experiment function returns plain dict rows (rendered by
:mod:`repro.bench.reporting` and asserted on by the benches) and follows
the same reporting discipline:

* **measured** columns are pure-Python wall clock at the scaled workload
  actually run;
* **modeled** columns are native-equivalent / FPGA-modeled seconds
  computed from the run's *measured operation counts* at the **paper's**
  workload size (linear extrapolation of per-read op counts — exact for
  this workload, whose reads are i.i.d.);
* paper-reported values ride along where the paper states them, so every
  bench prints reproduction and paper side by side.

References and indexes are cached per parameter set, because the figure
sweeps revisit the same builds many times.
"""

from __future__ import annotations

import time
from functools import lru_cache


from ..baseline.bowtie2_like import Bowtie2Like, assert_same_accuracy
from ..fpga.accelerator import FPGAAccelerator
from ..fpga.cost_model import DEFAULT_COST_MODEL, FPGACostModel
from ..fpga.power import DEFAULT_POWER_MODEL
from ..index.builder import encode_existing_bwt
from ..io.readsim import simulate_reads
from ..io.refgen import CHR21_LIKE, DEFAULT_SCALE, E_COLI_LIKE, generate_reference
from ..mapper.batch import run_mapping_batch
from ..sequence.alphabet import encode
from ..sequence.bwt import bwt_from_codes
from ..sequence.suffix_array import suffix_array
from .calibration import (
    DEFAULT_BOWTIE2_MODEL,
    DEFAULT_CPU_MODEL,
    PAPER_TABLE1,
    PAPER_TABLE2,
)

PROFILES = {"ecoli": E_COLI_LIKE, "chr21": CHR21_LIKE}


#: Paper-scale reference lengths (bases) used for modeled structure sizes.
PAPER_REF_BASES = {"ecoli": 4_641_652, "chr21": 40_088_619}


@lru_cache(maxsize=8)
def get_reference(profile: str, scale: float = DEFAULT_SCALE, seed: int = 7) -> str:
    """Cached synthetic reference for a named profile."""
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; have {sorted(PROFILES)}")
    return generate_reference(PROFILES[profile], scale=scale, seed=seed)


@lru_cache(maxsize=4)
def _reference_bwt(profile: str, scale: float, seed: int):
    codes = encode(get_reference(profile, scale, seed))
    sa = suffix_array(codes, method="doubling")
    return bwt_from_codes(codes, sa=sa)


@lru_cache(maxsize=16)
def get_index(
    profile: str,
    b: int = 15,
    sf: int = 50,
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    ftab_k: int | None = None,
):
    """Cached succinct index (+ build report) for a profile.

    Reuses the cached suffix array / BWT of the profile, so sweeping
    (b, sf) re-runs only the encoding step — the same reuse the paper's
    workflow gets by persisting step 1's output to a file.  ``ftab_k``
    additionally attaches the k-mer jump-start table (cached per k).
    """
    from ..core.bwt_structure import BWTStructure
    from ..index.builder import BuildReport
    from ..index.fm_index import FMIndex
    from ..index.ftab import Ftab
    from ..sequence.bwt import entropy0, run_length_stats
    from ..sequence.sampled_sa import FullSA

    bwt = _reference_bwt(profile, scale, seed)
    struct, encode_seconds = encode_existing_bwt(bwt, b=b, sf=sf)
    ftab = None
    ftab_seconds = 0.0
    if ftab_k is not None:
        t0 = time.perf_counter()
        ftab = Ftab.build(struct, k=ftab_k)
        ftab_seconds = time.perf_counter() - t0
    index = FMIndex(struct, locate_structure=FullSA(bwt.sa), ftab=ftab)
    sym = bwt.symbols_without_sentinel()
    report = BuildReport(
        text_length=bwt.text_length,
        b=b,
        sf=sf,
        backend="rrr",
        sa_bwt_seconds=0.0,  # amortized across the cache
        encode_seconds=encode_seconds,
        structure_bytes=struct.size_in_bytes(),
        uncompressed_bytes=bwt.length,
        bwt_entropy0=entropy0(sym) if sym.size else 0.0,
        bwt_runs=run_length_stats(bwt),
        ftab_seconds=ftab_seconds,
        ftab_bytes=ftab.size_in_bytes() if ftab is not None else 0,
    )
    return index, report


# ---------------------------------------------------------------------------
# Fig. 5 — structure size vs (b, sf)
# ---------------------------------------------------------------------------

def experiment_fig5(
    profiles: tuple[str, ...] = ("ecoli", "chr21"),
    b_values: tuple[int, ...] = (5, 10, 15),
    sf_values: tuple[int, ...] = (50, 100, 150, 200),
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
) -> list[dict]:
    """Structure size across the (b, sf) grid, plus paper-scale projection.

    The projection separates the reference-proportional part from the
    shared Global Rank Table (constant in N), then rescales the former to
    the real genome's length — the quantity Fig. 5 plots.
    """
    rows: list[dict] = []
    for profile in profiles:
        bwt = _reference_bwt(profile, scale, seed)
        n = bwt.text_length
        paper_n = PAPER_REF_BASES[profile]
        for b in b_values:
            for sf in sf_values:
                struct, _ = encode_existing_bwt(bwt, b=b, sf=sf)
                total = struct.size_in_bytes(include_shared=True)
                shared = total - struct.size_in_bytes(include_shared=False)
                variable = total - shared
                projected = variable * (paper_n / n) + shared
                rows.append(
                    {
                        "profile": profile,
                        "b": b,
                        "sf": sf,
                        "n_bases": n,
                        "structure_bytes": total,
                        "uncompressed_bytes": n + 1,
                        "space_saving_percent": 100.0 * (1 - total / (n + 1)),
                        "paper_scale_mb": projected / 1e6,
                        "paper_scale_uncompressed_mb": (paper_n + 1) / 1e6,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Fig. 6 — structure build (encoding) time vs (b, sf)
# ---------------------------------------------------------------------------

def experiment_fig6(
    profiles: tuple[str, ...] = ("ecoli", "chr21"),
    b_values: tuple[int, ...] = (5, 10, 15),
    sf_values: tuple[int, ...] = (50, 100, 150, 200),
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    repeats: int = 3,
) -> list[dict]:
    """Succinct-encoding time across the grid (step 2 of the workflow)."""
    rows: list[dict] = []
    for profile in profiles:
        bwt = _reference_bwt(profile, scale, seed)
        for b in b_values:
            for sf in sf_values:
                best = float("inf")
                for _ in range(repeats):
                    _, seconds = encode_existing_bwt(bwt, b=b, sf=sf)
                    best = min(best, seconds)
                rows.append(
                    {
                        "profile": profile,
                        "b": b,
                        "sf": sf,
                        "n_bases": bwt.text_length,
                        "encode_seconds": best,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Fig. 7 — mapping time vs mapping ratio
# ---------------------------------------------------------------------------

def experiment_fig7(
    profiles: tuple[str, ...] = ("ecoli", "chr21"),
    configs: tuple[tuple[int, int], ...] = ((15, 50), (15, 100)),
    ratios: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    n_reads: int = 1200,
    read_length: int = 100,
    paper_reads: int = 240_000,
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    cost_model: FPGACostModel = DEFAULT_COST_MODEL,
    ftab_variants: tuple[bool, ...] = (False, True),
    ftab_k: int = 10,
) -> list[dict]:
    """Mapping time vs mapped fraction, per profile and (b, sf).

    Reports measured Python wall seconds at ``n_reads`` plus modeled
    native-CPU and FPGA milliseconds at the paper's 240 k reads.  Each
    (profile, config, ratio) point is run once per ``ftab_variants``
    entry (the jump-start table off/on; the ``ftab`` column tags rows);
    intervals are bit-identical across variants, only the work changes.
    """
    rows: list[dict] = []
    for profile in profiles:
        ref = get_reference(profile, scale, seed)
        for b, sf in configs:
            for use_ftab in ftab_variants:
                index, report = get_index(
                    profile, b=b, sf=sf, scale=scale, seed=seed,
                    ftab_k=ftab_k if use_ftab else None,
                )
                index.backend.build_batch_cache()
                for ratio in ratios:
                    # Read seed deliberately decoupled from the reference
                    # seed: sharing a seed would make "random" unmapped
                    # reads replay the reference generator's stream and
                    # spuriously share long substrings with it.
                    reads = simulate_reads(
                        ref,
                        n_reads,
                        read_length,
                        mapping_ratio=ratio,
                        seed=seed * 1000 + 17 + int(ratio * 100),
                    ).reads
                    run = run_mapping_batch(index, reads, keep_results=False)
                    scale_up = paper_reads / n_reads
                    counts_paper = {
                        k: int(v * scale_up) for k, v in run.op_counts.items()
                    }
                    native_cpu_s = DEFAULT_CPU_MODEL.seconds(counts_paper)
                    # FPGA: hardware steps ~ half the software (dual
                    # pipelines); bounded below by the longer strand.  Use
                    # the counter total conservatively split per strand;
                    # each jump-start lookup occupies one step-equivalent
                    # pipeline slot (bs_steps is already net of the k
                    # iterations the LUT burst replaces).
                    hw_steps = (
                        counts_paper.get("bs_steps", 0)
                        + counts_paper.get("ftab_lookups", 0)
                    ) // 2
                    fpga_s = cost_model.run_seconds(
                        report.structure_bytes, hw_steps, paper_reads
                    )
                    row = {
                        "profile": profile,
                        "b": b,
                        "sf": sf,
                        "ftab": use_ftab,
                        "mapping_ratio": ratio,
                        "n_reads_measured": n_reads,
                        "measured_seconds": run.wall_seconds,
                        "bs_steps_per_read": run.total_bs_steps / n_reads,
                        "native_cpu_ms_240k": native_cpu_s * 1e3,
                        "fpga_ms_240k": fpga_s * 1e3,
                    }
                    rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Tables I and II — FPGA vs CPU vs Bowtie2
# ---------------------------------------------------------------------------

def _paper_structure_bytes(index_report_bytes: int, shared_bytes: int,
                           n_sample_bases: int, n_paper_bases: int) -> int:
    variable = index_report_bytes - shared_bytes
    return int(variable * (n_paper_bases / n_sample_bases) + shared_bytes)


def experiment_table(
    profile: str,
    read_length: int,
    paper_read_counts: tuple[int, ...],
    n_sample: int = 1500,
    mapping_ratio: float = 0.75,
    b: int = 15,
    sf: int = 50,
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    cost_model: FPGACostModel = DEFAULT_COST_MODEL,
    check_accuracy: bool = True,
) -> list[dict]:
    """One paper table: engines × read counts, modeled at paper scale.

    Measures a sample of ``n_sample`` reads through every engine, checks
    the engines agree read by read (the paper's no-accuracy-loss claim),
    then evaluates the analytic models at each paper read count.
    Returns one row per (read_count, engine).
    """
    ref = get_reference(profile, scale, seed)
    index, report = get_index(profile, b=b, sf=sf, scale=scale, seed=seed)
    index.backend.build_batch_cache()
    reads = simulate_reads(
        ref, n_sample, read_length, mapping_ratio=mapping_ratio, seed=seed * 1000 + 1
    ).reads

    # -- measured sample runs ------------------------------------------------
    succinct_run = run_mapping_batch(index, reads, keep_results=True)
    bowtie = Bowtie2Like(ref)
    bowtie_run = bowtie.map_reads(reads)
    if check_accuracy:
        assert_same_accuracy(succinct_run.results, bowtie_run.results)

    accelerator = FPGAAccelerator.for_index(index, cost_model=cost_model)
    fpga_run = accelerator.map_batch(reads, include_load=True)

    # -- paper-scale structure size (load overhead scales with it) ----------
    shared = report.structure_bytes - index.backend.tree.size_in_bytes(include_shared=False)
    paper_struct = _paper_structure_bytes(
        report.structure_bytes, shared, report.text_length, PAPER_REF_BASES[profile]
    )

    per_read_hw_steps = fpga_run.kernel_run.hw_steps_total / n_sample
    rows: list[dict] = []
    paper_table = PAPER_TABLE1 if profile == "ecoli" else PAPER_TABLE2
    for n_paper in paper_read_counts:
        scale_up = n_paper / n_sample
        fpga_s = cost_model.run_seconds(
            paper_struct, int(per_read_hw_steps * n_paper), n_paper
        )
        cpu_counts = {k: int(v * scale_up) for k, v in succinct_run.op_counts.items()}
        cpu_s = DEFAULT_CPU_MODEL.seconds(cpu_counts)
        bt_counts = {k: int(v * scale_up) for k, v in bowtie_run.op_counts.items()}
        bt1_s = DEFAULT_BOWTIE2_MODEL.seconds(bt_counts)
        bt8_s = bowtie.projected_seconds(bt1_s, 8)
        bt16_s = bowtie.projected_seconds(bt1_s, 16)

        paper_ms = _paper_times_for(paper_table, profile, n_paper)
        engines = [
            ("fpga", fpga_s, DEFAULT_POWER_MODEL.fpga_watts),
            ("bwaver_cpu", cpu_s, DEFAULT_POWER_MODEL.cpu_watts),
            ("bowtie2_1t", bt1_s, DEFAULT_POWER_MODEL.cpu_watts),
            ("bowtie2_8t", bt8_s, DEFAULT_POWER_MODEL.cpu_watts),
            ("bowtie2_16t", bt16_s, DEFAULT_POWER_MODEL.cpu_watts),
        ]
        for name, seconds, watts in engines:
            rows.append(
                {
                    "profile": profile,
                    "reads": n_paper,
                    "engine": name,
                    "modeled_ms": seconds * 1e3,
                    "speedup_vs_fpga": DEFAULT_POWER_MODEL.speedup_vs_fpga(seconds, fpga_s),
                    "power_eff_vs_fpga": DEFAULT_POWER_MODEL.efficiency_vs_fpga(
                        seconds, fpga_s, other_watts=watts
                    ),
                    "paper_ms": paper_ms.get(name),
                    "sample_wall_seconds": {
                        "fpga": fpga_run.host_wall_seconds,
                        "bwaver_cpu": succinct_run.wall_seconds,
                    }.get(name, bowtie_run.wall_seconds),
                    "mapping_ratio": succinct_run.mapping_ratio,
                }
            )
    return rows


def _paper_times_for(paper_table: dict, profile: str, n_reads: int) -> dict[str, float]:
    if profile == "ecoli":
        if n_reads == paper_table["workload"]["reads"]:
            return dict(paper_table["times_ms"])
        return {}
    row = paper_table["rows"].get(n_reads)
    return dict(row["times_ms"]) if row else {}


def experiment_table1(**kwargs) -> list[dict]:
    """Table I: 100 M × 35 bp on the E. coli-like reference."""
    kwargs.setdefault("profile", "ecoli")
    kwargs.setdefault("read_length", 35)
    kwargs.setdefault("paper_read_counts", (100_000_000,))
    return experiment_table(**kwargs)


def experiment_table2(**kwargs) -> list[dict]:
    """Table II: {1, 10, 100} M × 40 bp on the Chr21-like reference."""
    kwargs.setdefault("profile", "chr21")
    kwargs.setdefault("read_length", 40)
    kwargs.setdefault("paper_read_counts", (1_000_000, 10_000_000, 100_000_000))
    return experiment_table(**kwargs)
