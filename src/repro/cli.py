"""Command-line interface: the BWaveR workflow without writing Python.

Subcommands mirror the web workflow's stages plus the tooling a
downstream user needs:

``index``
    FASTA (plain/gzip) → flat ``.bwvr`` index container (steps 1 + 2);
    a multi-record FASTA builds a multi-reference index.
``map``
    index + FASTQ → hits TSV (step 3), on the CPU mapper or through the
    simulated FPGA for the modeled-time report; streaming, constant
    memory.  The container's segment CRCs are verified before mapping.
``inspect``
    Print an index's parameters, sizes, and validation report.
``simulate``
    Generate a synthetic reference FASTA and/or a mapping-ratio-
    controlled FASTQ (the evaluation's workload generator).
``selfcheck``
    Run the differential self-check harness: seeded adversarial inputs
    through every backend/oracle pair, shrunk counterexamples on
    mismatch (DESIGN.md §9).
``serve``
    Start the web application.
``bench``
    The continuous-benchmarking platform (DESIGN.md §11):
    ``bench run`` executes a declarative experiment suite and persists
    trials (JSON + SQLite, keyed by git hash/config hash/seed/host),
    ``bench report`` renders the HTML report with trajectory plots and
    significance tests, and ``bench gate`` exits non-zero on a
    significant regression of any named hot path against a baseline
    measured on the same host.

Run ``python -m repro.cli <subcommand> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path


def _cmd_index(args: argparse.Namespace) -> int:
    from .index.builder import build_index
    from .index.flat import save_index_flat, save_multiref_index_flat
    from .io.fasta import read_fasta

    records = read_fasta(args.fasta, on_invalid=args.on_invalid)
    if not records:
        print("error: reference FASTA contains no records", file=sys.stderr)
        return 2
    if len(records) > 1:
        from .index.multiref import MultiReferenceIndex

        if args.blockwise:
            print(
                "error: --blockwise supports single-reference FASTA only",
                file=sys.stderr,
            )
            return 2
        print(
            f"multi-sequence reference: {len(records)} records, "
            f"{sum(r.length for r in records):,} bp total"
        )
        multi = MultiReferenceIndex(
            records, b=args.block_size, sf=args.superblock_factor,
            backend=args.backend,
        )
        save_multiref_index_flat(multi, args.output)
        report = multi.build_report
        print(
            f"built in {report.sa_bwt_seconds + report.encode_seconds:.2f}s; "
            f"structure: {report.structure_bytes:,} B -> {args.output}"
        )
        return 0
    rec = records[0]
    if not rec.sequence:
        print(f"error: reference {rec.name!r} has an empty sequence", file=sys.stderr)
        return 2
    print(f"reference {rec.name}: {rec.length:,} bp")
    if args.blockwise:
        from .index.build_stream import build_index_blockwise

        report = build_index_blockwise(
            rec.sequence,
            args.output,
            b=args.block_size,
            sf=args.superblock_factor,
            backend=args.backend,
            locate=args.locate,
            ftab_k=args.ftab_k or None,
            block_mb=args.block_mb,
            resume=args.resume,
        )
        resumed = " (resumed)" if report.resumed else ""
        stages = ", ".join(
            f"{name} {secs:.2f}s" for name, secs in report.stage_seconds.items()
        )
        print(f"blockwise build{resumed}: {stages}")
        print(
            f"structure: {report.structure_bytes:,} B "
            f"({report.space_saving_percent:.1f}% saved vs 1 B/char) "
            f"-> {args.output}"
        )
        return 0
    index, report = build_index(
        rec.sequence,
        b=args.block_size,
        sf=args.superblock_factor,
        backend=args.backend,
        locate=args.locate,
        ftab_k=args.ftab_k or None,
    )
    save_index_flat(index, args.output)
    print(
        f"built in {report.sa_bwt_seconds + report.encode_seconds:.2f}s "
        f"(SA+BWT {report.sa_bwt_seconds:.2f}s, encode {report.encode_seconds:.3f}s)"
    )
    if index.ftab is not None:
        print(
            f"ftab: k={index.ftab.k}, {report.ftab_bytes:,} B "
            f"built in {report.ftab_seconds:.3f}s"
        )
    print(
        f"structure: {report.structure_bytes:,} B "
        f"({report.space_saving_percent:.1f}% saved vs 1 B/char) -> {args.output}"
    )
    return 0


def _open_index(path: Path, verify: bool):
    """Open a container for a CLI command, or print why not and return
    ``None``."""
    from .index.flat import IndexFormatError, load_any_index_auto

    try:
        return load_any_index_auto(path, verify=verify)
    except IndexFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_map(args: argparse.Namespace) -> int:
    from .index.multiref import MultiReferenceIndex
    from .io.fasta import _open_text
    from .io.fastq import parse_fastq
    from .mapper.stream import map_fastq_to_tsv

    # Check every segment CRC before mapping, so a corrupt index fails
    # here instead of mapping from bad data; multi-reference containers
    # route through the multiref mapper.
    loaded = _open_index(args.index, verify=True)
    if loaded is None:
        return 2
    if isinstance(loaded, MultiReferenceIndex):
        return _map_multiref(args, loaded)
    index = loaded
    if args.no_ftab:
        # Drop the jump-start table before any mapping (or pool publish):
        # results are bit-identical either way, only the work changes.
        index.ftab = None
        index.use_ftab = False

    if args.pool > 1:
        return _map_pooled(args, index)

    from .fpga.accelerator import FPGAAccelerator

    if args.device == "fpga":
        from .faults import FaultPlan, RetryPolicy

        # FPGA path: functional kernel + modeled time, then host locate.
        with _open_text(args.fastq) as fh:
            reads = [r.sequence for r in parse_fastq(fh)]
        fault_plan = None
        if args.faults:
            fault_plan = FaultPlan.from_spec(args.faults, seed=args.fault_seed)
        retry_policy = RetryPolicy(
            max_retries=args.fault_retries,
            cpu_fallback=not args.no_cpu_fallback,
        )
        acc = FPGAAccelerator.for_index(
            index, fault_plan=fault_plan, retry_policy=retry_policy
        )
        run = acc.map_batch(reads, batch_size=args.batch_size)
        print(
            f"simulated FPGA: {run.n_reads} reads, "
            f"modeled {run.modeled_seconds * 1e3:.2f} ms "
            f"(load {run.modeled_load_seconds * 1e3:.2f} ms), "
            f"energy {run.energy_joules:.3f} J, "
            f"mapping ratio {run.mapping_ratio:.2f}"
        )
        if fault_plan is not None:
            injected = dict(acc.injector.injected) if acc.injector else {}
            status = "DEGRADED (CPU fallback)" if run.degraded else "recovered"
            print(
                f"faults: injected {injected or 'none'}, "
                f"detected {run.fault_counts or 'none'}, "
                f"{run.retries} retries, {run.reprograms} reprograms -> {status}"
            )

    if args.format == "sam":
        import time

        from .mapper.mapper import Mapper
        from .mapper.sam import write_sam_single

        with _open_text(args.fastq) as fh:
            records = list(parse_fastq(fh))
        reads = [r.sequence for r in records]
        t0 = time.perf_counter()
        results = Mapper(index, locate=True).map_reads(
            reads, names=[r.name for r in records]
        )
        wall = time.perf_counter() - t0
        with open(args.output, "w") as out:
            write_sam_single(
                results, reads, out, reference_name=args.reference_name,
                reference_length=index.n_rows - 1,
            )
        n_mapped = results.n_mapped
        n_reads = len(reads)
    else:
        with open(args.output, "w") as out, _open_text(args.fastq) as fh:
            summary = map_fastq_to_tsv(
                index,
                (r.sequence for r in parse_fastq(fh)),
                out,
                batch_size=args.batch_size,
            )
        n_mapped, n_reads, wall = summary.n_mapped, summary.n_reads, summary.wall_seconds
    print(
        f"mapped {n_mapped}/{n_reads} reads "
        f"in {wall:.2f}s host time -> {args.output}"
    )
    return 0


def _map_pooled(args: argparse.Namespace, index) -> int:
    """Map through a persistent worker pool sharing one index copy."""
    import time

    from .io.fasta import _open_text
    from .io.fastq import parse_fastq
    from .mapper.results import write_hits_tsv
    from .serving.pool import MapperPool

    if args.device != "cpu" or args.format != "tsv":
        print(
            "error: --pool requires --device cpu and --format tsv",
            file=sys.stderr,
        )
        return 2
    with _open_text(args.fastq) as fh:
        reads = [r.sequence for r in parse_fastq(fh)]
    # Workers mmap the container in place.  With --no-ftab the stripped
    # in-memory index is published to shared memory instead, so workers
    # never see the container's ftab segment.
    pool_args = {"index": index} if args.no_ftab else {"flat_path": args.index}
    t0 = time.perf_counter()
    with MapperPool(workers=args.pool, **pool_args) as pool:
        results = pool.map_reads(reads, locate=True)
        attach_ms = ", ".join(f"{s * 1e3:.0f}ms" for s in pool.attach_seconds)
    wall = time.perf_counter() - t0
    with open(args.output, "w") as out:
        write_hits_tsv(results, out)
    n_mapped = results.n_mapped
    print(f"pool: {args.pool} workers attached in [{attach_ms}]")
    print(
        f"mapped {n_mapped}/{len(reads)} reads "
        f"in {wall:.2f}s host time -> {args.output}"
    )
    return 0


def _map_multiref(args: argparse.Namespace, multi) -> int:
    """Map against a multi-reference index (per-sequence coordinates)."""
    from .io.fasta import _open_text
    from .io.fastq import parse_fastq
    from .mapper.sam import write_sam_multiref

    with _open_text(args.fastq) as fh:
        records = list(parse_fastq(fh))
    reads = [r.sequence for r in records]
    names = [r.name for r in records]
    if args.format == "sam":
        with open(args.output, "w") as out:
            write_sam_multiref(multi, reads, out, read_names=names)
        mapped = None
    else:
        mapped = 0
        with open(args.output, "w") as out:
            out.write("read\tsequence\tposition\tstrand\n")
            for name, read in zip(names, reads):
                mapping = multi.map_read(read)
                if mapping.mapped:
                    mapped += 1
                    for hit in mapping.hits:
                        out.write(f"{name}\t{hit.name}\t{hit.position}\t{hit.strand}\n")
                else:
                    out.write(f"{name}\t.\t.\t.\n")
    suffix = f", {mapped}/{len(reads)} mapped" if mapped is not None else ""
    print(
        f"mapped {len(reads)} reads against {multi.n_sequences} sequences"
        f"{suffix} -> {args.output}"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .core.bwt_structure import BWTStructure
    from .index.flat import IndexFormatError, verify_flat_index
    from .index.multiref import MultiReferenceIndex
    from .index.validate import IndexValidationError, validate_index

    index = _open_index(args.index, verify=False)
    if index is None:
        return 2
    print(f"index: {args.index}")
    if isinstance(index, MultiReferenceIndex):
        print(f"  sequences: {index.n_sequences}")
        index = index.index
    backend = index.backend
    print(f"  backend: {type(backend).__name__}")
    print(f"  matrix rows: {backend.n_rows:,} (text {backend.n_rows - 1:,} bp)")
    if isinstance(backend, BWTStructure):
        print(f"  RRR parameters: b={backend.b}, sf={backend.sf}")
        print(f"  wavelet nodes: {len(backend.tree.nodes())}, depth {backend.tree.depth()}")
    print(f"  structure bytes: {backend.size_in_bytes():,}")
    if index.locate_structure is not None:
        print(
            f"  locate: {type(index.locate_structure).__name__}, "
            f"{index.locate_structure.size_in_bytes():,} B"
        )
    if index.ftab is not None:
        print(
            f"  ftab: k={index.ftab.k}, {index.ftab.size_in_bytes():,} B "
            f"({len(index.ftab.lo):,} entries)"
        )
    if args.validate:
        try:
            names = verify_flat_index(args.index)
        except IndexFormatError as exc:
            print(f"  VALIDATION FAILED: {exc}", file=sys.stderr)
            return 1
        print(f"  checksums: OK ({len(names)} segments)")
        try:
            report = validate_index(index, samples=args.samples)
        except IndexValidationError as exc:
            print(f"  VALIDATION FAILED: {exc}", file=sys.stderr)
            return 1
        print(f"  validation: OK ({', '.join(report.checks)})")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .io.fasta import FastaRecord, read_fasta, write_fasta
    from .io.fastq import write_fastq
    from .io.readsim import simulate_reads
    from .io.refgen import CHR21_LIKE, E_COLI_LIKE, generate_reference

    profiles = {"ecoli": E_COLI_LIKE, "chr21": CHR21_LIKE}
    if args.reference_out:
        ref = generate_reference(profiles[args.profile], scale=args.scale, seed=args.seed)
        write_fasta(
            [FastaRecord(f"synthetic_{args.profile}", "generated", ref)],
            args.reference_out,
            compress=str(args.reference_out).endswith(".gz"),
        )
        print(f"reference: {len(ref):,} bp -> {args.reference_out}")
    else:
        if not args.reference_in:
            print("error: need --reference-out or --reference-in", file=sys.stderr)
            return 2
        ref = read_fasta(args.reference_in)[0].sequence
    if args.reads_out:
        readset = simulate_reads(
            ref,
            n_reads=args.n_reads,
            read_length=args.read_length,
            mapping_ratio=args.mapping_ratio,
            seed=args.seed + 1,
        )
        write_fastq(
            readset.to_fastq(),
            args.reads_out,
            compress=str(args.reads_out).endswith(".gz"),
        )
        print(
            f"reads: {readset.n_reads} x {args.read_length} bp at ratio "
            f"{readset.mapping_ratio:.2f} -> {args.reads_out}"
        )
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from .check import PROFILES, SelfCheck

    checks = args.checks.split(",") if args.checks else None
    sc = SelfCheck(
        seed=args.seed,
        profile=PROFILES[args.profile],
        checks=checks,
        corpus_dir=args.corpus_dir,
    )
    if args.replay:
        report = sc.replay(args.replay)
        if not report.outcomes:
            print(f"selfcheck: no corpus entries under {args.replay}")
            return 0
    else:
        report = sc.run(args.rounds, progress=lambda msg: print(msg, file=sys.stderr))
    print("\n".join(report.summary_lines()))
    for path in report.corpus_written:
        print(f"counterexample stored: {path}")
    return 0 if report.ok else 1


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.platform import ResultsStore, resolve_suite, run_experiments

    try:
        configs = resolve_suite(args.suite)
        if args.reps is not None:
            configs = [replace(c, repetitions=args.reps) for c in configs]
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with ResultsStore(args.store) as store:
        report = run_experiments(
            configs,
            store,
            as_baseline=args.as_baseline,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    print("\n".join(report.summary_lines()))
    if report.skipped and args.strict:
        return 1
    return 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from .bench.platform import ResultsStore, write_report

    with ResultsStore(args.store) as store:
        if store.count() == 0:
            print(f"error: store {args.store} has no trials", file=sys.stderr)
            return 2
        path = write_report(store, args.output)
    print(f"report -> {path}")
    return 0


def _cmd_bench_gate(args: argparse.Namespace) -> int:
    from .bench.platform import ResultsStore, run_gate

    with ResultsStore(args.store) as store:
        report = run_gate(
            store,
            git_hash=args.git_hash,
            threshold_override=args.threshold,
            alpha=args.alpha,
        )
    print("\n".join(report.summary_lines()))
    if args.require_evaluated and report.evaluated == 0:
        print("error: gate evaluated no hot paths", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .web.server import serve

    serve(
        host=args.host,
        port=args.port,
        job_workers=args.pool,
        job_backlog=args.backlog,
        map_index_fasta=(
            str(args.map_index) if args.map_index is not None else None
        ),
        map_pool_workers=args.map_pool,
        coalesce_window_ms=args.coalesce_window_ms,
        coalesce_max_batch=args.coalesce_max_batch,
        catalog_manifest=(
            str(args.catalog) if args.catalog is not None else None
        ),
        shard_memory_budget_mb=args.shard_memory_budget,
        shard_workers=args.shard_workers,
    )
    return 0  # pragma: no cover - serve() blocks


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("telemetry")
    g.add_argument(
        "--metrics-out", type=Path, default=None,
        help="write a Prometheus text snapshot of the run's metrics here",
    )
    g.add_argument(
        "--trace-out", type=Path, default=None,
        help="write a Chrome/Perfetto trace (JSON) of the run's spans here",
    )
    g.add_argument(
        "--log-json", type=Path, default=None,
        help="append structured JSON log lines (one object per line) here",
    )


@contextmanager
def _telemetry_session(args: argparse.Namespace):
    """Enable telemetry for the command when any output flag was given,
    and write the requested artifacts when the command finishes."""
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    log_json = getattr(args, "log_json", None)
    if metrics_out is None and trace_out is None and log_json is None:
        yield
        return
    from .telemetry import Telemetry, correlate, new_run_id, set_telemetry

    log_fh = open(log_json, "a") if log_json is not None else None
    tel = Telemetry(enabled=True, log_stream=log_fh)
    set_telemetry(tel)
    try:
        with correlate(run_id=new_run_id()):
            yield
    finally:
        set_telemetry(Telemetry(enabled=False))
        if metrics_out is not None:
            Path(metrics_out).write_text(tel.metrics.prometheus_text())
            print(f"telemetry: metrics snapshot -> {metrics_out}")
        if trace_out is not None:
            with open(trace_out, "w") as fh:
                n = tel.tracer.write_chrome_trace(fh)
            print(f"telemetry: chrome trace ({n} slices) -> {trace_out}")
        if log_fh is not None:
            log_fh.close()
            print(f"telemetry: json log -> {log_json}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwaver-repro",
        description="BWaveR reproduction: succinct DNA sequence mapping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an index from a FASTA reference")
    p.add_argument("fasta", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("-b", "--block-size", type=int, default=15)
    p.add_argument("-s", "--superblock-factor", type=int, default=50)
    p.add_argument("--backend", choices=["rrr", "occ"], default="rrr")
    p.add_argument("--locate", choices=["full", "sampled", "none"], default="full")
    p.add_argument(
        "--ftab-k", type=int, default=0, metavar="K",
        help="precompute the k-mer jump-start table (4^K entries; 0 = off; "
        "single-reference indexes only)",
    )
    p.add_argument(
        "--format", choices=["flat"], default="flat",
        help="index container: 'flat' (zero-copy binary, O(1) mmap open) "
        "is the only format",
    )
    p.add_argument("--on-invalid", choices=["error", "skip", "random"], default="error")
    p.add_argument(
        "--blockwise", action="store_true",
        help="out-of-core build with bounded memory (single-reference; "
        "resumable via --resume)",
    )
    p.add_argument(
        "--block-mb", type=float, default=64.0, metavar="MB",
        help="memory budget of the blockwise suffix-array rounds",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted --blockwise build from its "
        "checkpointed work directory",
    )
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("map", help="map a FASTQ read set against an index")
    p.add_argument("index", type=Path)
    p.add_argument("fastq", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--device", choices=["cpu", "fpga"], default="cpu")
    p.add_argument("--batch-size", type=int, default=2048)
    p.add_argument("--format", choices=["tsv", "sam"], default="tsv")
    p.add_argument(
        "--pool", type=int, default=1,
        help="worker processes sharing one index copy (cpu/tsv only); "
        "1 maps in-process",
    )
    p.add_argument("--reference-name", default="ref")
    p.add_argument(
        "--no-ftab", action="store_true",
        help="ignore the index's k-mer jump-start table (results are "
        "bit-identical; useful for timing comparisons)",
    )
    p.add_argument(
        "--faults",
        default="",
        help="fault-injection spec for --device fpga, e.g. "
        "'bram_flip_prob=0.5,transfer_corrupt_prob=0.1,max_faults=3'",
    )
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument(
        "--fault-retries", type=int, default=3,
        help="per-batch retry budget before CPU fallback",
    )
    p.add_argument(
        "--no-cpu-fallback", action="store_true",
        help="raise instead of degrading to the CPU mapper",
    )
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("inspect", help="print index parameters and validate")
    p.add_argument("index", type=Path)
    p.add_argument("--validate", action="store_true")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("simulate", help="generate synthetic references/reads")
    p.add_argument("--profile", choices=["ecoli", "chr21"], default="ecoli")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference-out", type=Path)
    p.add_argument("--reference-in", type=Path)
    p.add_argument("--reads-out", type=Path)
    p.add_argument("--n-reads", type=int, default=1000)
    p.add_argument("--read-length", type=int, default=100)
    p.add_argument("--mapping-ratio", type=float, default=1.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "selfcheck",
        help="run the differential self-check harness (DESIGN.md §9)",
    )
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument(
        "--rounds", type=int, default=50,
        help="rounds per check pair (default 50)",
    )
    p.add_argument(
        "--profile", choices=("quick", "default", "thorough"), default="default",
        help="input-size/expense profile (default: default)",
    )
    p.add_argument(
        "--checks", default=None,
        help="comma-separated subset of check names (default: all)",
    )
    p.add_argument(
        "--corpus-dir", type=Path, default=None,
        help="store shrunk counterexamples here (e.g. tests/corpus)",
    )
    p.add_argument(
        "--replay", type=Path, default=None, metavar="CORPUS_DIR",
        help="re-verify stored counterexamples instead of fuzzing",
    )
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_selfcheck)

    p = sub.add_parser(
        "bench",
        help="continuous-benchmarking platform: run/report/gate (DESIGN.md §11)",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    bp = bench_sub.add_parser("run", help="execute a declarative experiment suite")
    bp.add_argument(
        "--suite", default="smoke",
        help="built-in suite name (smoke/hotpaths/tiny) or a suite JSON path",
    )
    bp.add_argument(
        "--store", type=Path, default=Path("bench-store"),
        help="results store directory (trials/*.json + trajectory.sqlite)",
    )
    bp.add_argument(
        "--reps", type=int, default=None,
        help="override every experiment's steady repetitions",
    )
    bp.add_argument(
        "--as-baseline", action="store_true",
        help="flag this run's trials as the gate's comparison baseline",
    )
    bp.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any experiment in the suite failed to run",
    )
    bp.set_defaults(func=_cmd_bench_run)

    bp = bench_sub.add_parser("report", help="render the HTML perf report")
    bp.add_argument("--store", type=Path, default=Path("bench-store"))
    bp.add_argument("-o", "--output", type=Path, default=Path("bench-report.html"))
    bp.set_defaults(func=_cmd_bench_report)

    bp = bench_sub.add_parser(
        "gate",
        help="fail (exit 1) on a significant regression of a named hot path",
    )
    bp.add_argument("--store", type=Path, default=Path("bench-store"))
    bp.add_argument(
        "--git-hash", default=None,
        help="revision to gate (default: latest non-baseline run in the store)",
    )
    bp.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="override every hot path's regression threshold (e.g. 0.25)",
    )
    bp.add_argument("--alpha", type=float, default=0.01, help="significance level")
    bp.add_argument(
        "--require-evaluated", action="store_true",
        help="exit 2 when no hot path had both samples and a same-host baseline",
    )
    bp.set_defaults(func=_cmd_bench_gate)

    p = sub.add_parser("serve", help="start the web application")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument(
        "--pool", type=int, default=2,
        help="maximum concurrently running background jobs",
    )
    p.add_argument(
        "--backlog", type=int, default=8,
        help="queued jobs beyond --pool before submissions get HTTP 503",
    )
    g = p.add_argument_group("served index (POST /map)")
    g.add_argument(
        "--map-index", type=Path, default=None,
        help="reference FASTA to preload and serve on POST /map; concurrent "
        "requests against it are coalesced into shared kernel batches",
    )
    g.add_argument(
        "--map-pool", type=int, default=0,
        help="worker processes for the served index (0 = in-process mapper)",
    )
    g.add_argument(
        "--coalesce-window-ms", type=float, default=2.0,
        help="max milliseconds a /map request waits to share a batch",
    )
    g.add_argument(
        "--coalesce-max-batch", type=int, default=512,
        help="reads per merged batch before an early flush (1, with "
        "--coalesce-window-ms 0, dispatches each /map request alone)",
    )
    g = p.add_argument_group("served shard catalog (POST /map?catalog=...)")
    g.add_argument(
        "--catalog", type=Path, default=None,
        help="shard catalog manifest JSON ({'shards': [{'name', 'path'|"
        "'fasta'}, ...]}) to serve through the scatter-gather router",
    )
    g.add_argument(
        "--shard-memory-budget", type=float, default=None, metavar="MB",
        help="memory budget for resident shards in MiB; the catalog may "
        "exceed it — cold shards activate LRU-style on demand",
    )
    g.add_argument(
        "--shard-workers", type=int, default=0,
        help="worker processes per active shard (0 = in-process mappers)",
    )
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _telemetry_session(args):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
