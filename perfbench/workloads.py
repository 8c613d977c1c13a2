"""The three workloads.  Each drives the program only from outside --
CLI processes and loopback HTTP -- and returns its end-to-end metrics,
its operation counts and what the layer table needs from the client
side.

Every workload: a timed phase of ``seconds`` whose operations are all
checked by the oracle, and set-up measured as the median of
``SETUP_REPS`` fresh starts spread over the whole run -- between the
launches of the timed phase for the CLI workloads, before and after it
for the servers -- so that set-up samples the same host speed as the
timed phase instead of one moment of it.
"""

from __future__ import annotations

import json
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.index.flat import read_flat_manifest

from loadgen import Outcome, closed_loop, post_once
from oracle import check_catalog_json, check_segment_crcs, check_tsv, parse_json
from procs import BenchError, Server, cli_prefix, run_cli
from stats import median, percentile

SETUP_REPS = 9
HTTP_CATALOG_WARMUP = 1
#: Pool workers per catalog shard (``serve --shard-workers``).
HTTP_CATALOG_SHARD_WORKERS = 1


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


@dataclass
class Result:
    metrics: dict[str, float]
    tally: Tally
    client: dict = field(default_factory=dict)  # client-side layer inputs
    containers: list[Path] = field(default_factory=list)
    spans_dir: Path | None = None
    measure_from_ns: int = 0


def _mb(n: float) -> float:
    return n / (1 << 20)


def _spans(trace_dir: Path | None, phase: str) -> Path | None:
    return None if trace_dir is None else trace_dir / phase


def _launches(argv: list[str], seconds: float, log: Path, check, setup_once) -> tuple[list, list]:
    """Launch ``argv`` back to back until the launches themselves have
    taken ``seconds`` (at least once), with one set-up start
    (``setup_once()``, returning its seconds) before each launch and
    more after the last until there are ``SETUP_REPS``.  Output checks
    run between launches but outside the count, so the number of
    launches per run does not depend on how long checking takes.
    Returns ``(launches, set-up seconds)``."""
    runs, setup, busy = [], [], 0.0
    while not runs or busy < seconds:
        if len(setup) < SETUP_REPS:
            setup.append(setup_once())
        run = run_cli(argv, log)
        busy += run.wall_s
        check(run)
        runs.append(run)
    while len(setup) < SETUP_REPS:
        setup.append(setup_once())
    return runs, setup


# -- map_bulk ----------------------------------------------------------------


def map_bulk(d: Path, doc: dict, seconds: float, run_dir: Path, trace: Path | None) -> Result:
    tally = Tally()
    index = d / doc["index"]
    n_reads = doc["n_reads"]
    expected = {int(k): v for k, v in doc["expected_rows"].items()}
    out_one, out_bulk = run_dir / "one.tsv", run_dir / "bulk.tsv"

    def check_one(run) -> None:
        good = run.returncode == 0 and check_tsv(out_one.read_text(), 1, {0: doc["one_row"]}) == 0
        tally.record(good, f"one-read map failed: rc={run.returncode}")

    def check_bulk(run) -> None:
        wrong = check_tsv(out_bulk.read_text(), n_reads, expected) if run.returncode == 0 else 1
        tally.record(wrong == 0, f"bulk map: rc={run.returncode}, {wrong} wrong rows")

    setup_argv = cli_prefix(_spans(trace, "setup")) + [
        "map", str(index), str(d / doc["one_fastq"]), "-o", str(out_one)]

    def setup_once() -> float:
        run = run_cli(setup_argv, run_dir / "log")
        check_one(run)
        return run.wall_s

    measure_from = time.perf_counter_ns()
    bulk_argv = cli_prefix(_spans(trace, "measure")) + [
        "map", str(index), str(d / doc["fastq"]), "-o", str(out_bulk)]
    runs, setup = _launches(bulk_argv, seconds, run_dir / "log", check_bulk, setup_once)
    walls = [r.wall_s for r in runs]
    kbases = doc["read_bases"] / 1e3
    return Result(
        metrics={
            "setup_s": median(setup),
            "kbp_per_s": median(kbases / w for w in walls),
            "latency_p50_ms": median(w * 1e3 for w in walls),
            "latency_p95_ms": percentile([w * 1e3 for w in walls], 95),
            "peak_rss_mb": median(r.maxrss_mb for r in runs),
            "index_mb": _mb(index.stat().st_size),
        },
        tally=tally,
        client={
            "launches": len(runs),
            # Every located position is written to the TSV.
            "positions_returned": _tsv_positions(out_bulk.read_text()) * len(runs),
        },
        containers=[index],
        spans_dir=_spans(trace, "measure"),
        measure_from_ns=measure_from,
    )


def _tsv_positions(text: str) -> int:
    n = 0
    for line in text.splitlines()[1:]:
        cols = line.split("\t")
        if len(cols) == 6:
            n += int(cols[2]) + int(cols[3])
    return n


# -- http_catalog ----------------------------------------------------------------


def _first_good_reply(server: Server, path: str, probe: bytes, check, tally: Tally) -> float:
    """Seconds from spawn until a one-read ``POST path`` first returns
    200 -- the server's set-up time.  The reply is checked too."""
    deadline = time.perf_counter() + 120.0
    while time.perf_counter() < deadline:
        if server.proc.poll() is not None:
            raise BenchError(f"server exited with code {server.proc.returncode}")
        status, data = post_once(server.port, path, probe)
        if status == 200:
            elapsed = time.perf_counter() - server.t_spawn
            doc = parse_json(data)
            tally.record(doc is not None and check(doc) == 0, "set-up request: wrong reply")
            return elapsed
        if status != 0:
            tally.record(False, f"set-up request got HTTP {status}")
        time.sleep(0.002)
    raise BenchError("server gave no 200 reply within 120 s")


def _serve_and_measure(serve_args, path, probe, check_probe, run_dir, trace, tally, drive):
    """``SETUP_REPS`` spawns, each timed to its first 200.  The middle
    one stays up for ``drive(server)`` and is measured before it is
    stopped, so the set-up samples come from both sides of the timed
    phase."""
    setup = []
    driven_k = SETUP_REPS // 2
    for k in range(SETUP_REPS):
        driven_now = k == driven_k
        spans = _spans(trace, "measure" if driven_now else f"setup{k}")
        server = Server(serve_args, run_dir / f"server{k}", spans_dir=spans)
        try:
            setup.append(_first_good_reply(server, path, probe, check_probe, tally))
            if driven_now:
                driven = drive(server)
                peak = server.peak_rss_mb()
        except BaseException:
            server.kill()
            raise
        problems = server.stop()
        tally.record(not problems, "; ".join(problems))
    return median(setup), peak, driven


def _probe(doc: dict, expected: list[dict]) -> tuple[bytes, object]:
    """A one-read request body: the first oracle-checked read of the last
    body, with its expected answer."""
    k, want = next(iter(expected[-1].items()))
    return json.dumps({"reads": [doc["bodies"][-1]["reads"][k]]}).encode(), want


def _outcome_check(o: Outcome, check, tally: Tally) -> bool:
    doc = parse_json(o.body) if o.status == 200 else None
    wrong = check(doc, o.index) if doc is not None else 1
    return tally.record(wrong == 0, f"request {o.index}: HTTP {o.status}, {wrong} wrong")


def http_catalog(d: Path, doc: dict, seconds: float, run_dir: Path, trace: Path | None) -> Result:
    tally = Tally()
    bodies = [json.dumps({"reads": b["reads"]}).encode() for b in doc["bodies"]]
    expected = [
        {int(k): [tuple(h) for h in v] for k, v in b["expected"].items()} for b in doc["bodies"]
    ]
    n_req = len(doc["bodies"][0]["reads"])
    path = "/map?catalog"

    def check(resp: dict, k: int) -> int:
        return check_catalog_json(resp, n_req, expected[k])

    def drive(server: Server):
        for i in range(HTTP_CATALOG_WARMUP):
            k = len(bodies) - 1 - i
            status, data = post_once(server.port, path, bodies[k])
            _outcome_check(Outcome(k, 0, 0, status, data), check, tally)
        measure_from = time.perf_counter_ns()
        return measure_from, closed_loop(server.port, path, bodies, seconds)

    probe, want = _probe(doc, expected)
    serve_args = ["--catalog", str(d / doc["manifest"]),
                  "--shard-workers", str(HTTP_CATALOG_SHARD_WORKERS)]
    setup_s, peak, (measure_from, outcomes) = _serve_and_measure(
        serve_args, path, probe, lambda resp: check_catalog_json(resp, 1, {0: want}),
        run_dir, trace, tally, drive,
    )
    ok = [o for o in outcomes if _outcome_check(o, check, tally)]
    span = outcomes[-1].done - outcomes[0].sent
    docs = [parse_json(o.body) for o in ok]
    containers = [d / c for c in doc["containers"]]
    returned = sum(r["n_hits"] for x in docs for r in x["results"])
    return Result(
        metrics={
            "setup_s": setup_s,
            "kbp_per_s": sum(_bases(doc["bodies"][o.index]["reads"]) for o in ok) / 1e3 / span,
            "latency_p50_ms": median(o.latency_ms for o in outcomes),
            "latency_p95_ms": percentile([o.latency_ms for o in outcomes], 95),
            "peak_rss_mb": peak,
            "index_mb": _mb(sum(c.stat().st_size for c in containers)),
        },
        tally=tally,
        client={
            "sent": len(outcomes),
            "ok": len(ok),
            "failed": len(outcomes) - len(ok),
            "wait_ms": median(x["wait_ms"] for x in docs),
            "batch_reads": median(x["batch_reads"] for x in docs),
            "request_reads": n_req,
            "positions_returned": returned,
        },
        containers=containers,
        spans_dir=_spans(trace, "measure"),
        measure_from_ns=measure_from,
    )


def _bases(reads: list[str]) -> int:
    return sum(map(len, reads))


# -- index_build -----------------------------------------------------------------


def index_build(d: Path, doc: dict, seconds: float, run_dir: Path, trace: Path | None) -> Result:
    tally = Tally()
    flags = ["--blockwise", "--locate", "sampled", "--ftab-k", "10"]
    tiny_out = run_dir / "tiny.bwvr"
    tiny_argv = cli_prefix(_spans(trace, "setup")) + [
        "index", str(d / doc["tiny_fasta"]), "-o", str(tiny_out)] + flags

    def setup_once() -> float:
        tiny_out.unlink(missing_ok=True)
        run = run_cli(tiny_argv, run_dir / "log")
        tally.record(run.returncode == 0 and tiny_out.is_file(), "tiny build failed")
        return run.wall_s

    out = run_dir / "built.bwvr"
    sizes: list[int] = []
    kept = run_dir / "last.bwvr"

    def check(run) -> None:
        good = run.returncode == 0 and out.is_file()
        if good and not sizes:
            # Later builds are held byte for byte to the monolithic CRCs
            # below, so one `inspect --validate` covers them too.
            inspect = run_cli(cli_prefix() + ["inspect", str(out), "--validate"], run_dir / "log")
            good = inspect.returncode == 0 and "checksums: OK" in inspect.stdout
        if good:
            good = _crc_mismatches(out, doc["mono_segments"]) == 0
            sizes.append(out.stat().st_size)
            out.replace(kept)
        tally.record(good, f"blockwise build rc={run.returncode} failed validation or parity")
        shutil.rmtree(str(out) + ".build", ignore_errors=True)

    measure_from = time.perf_counter_ns()
    argv = cli_prefix(_spans(trace, "measure")) + [
        "index", str(d / doc["fasta"]), "-o", str(out)] + flags
    runs, setup = _launches(argv, seconds, run_dir / "log", check, setup_once)
    walls = [r.wall_s for r in runs]
    return Result(
        metrics={
            "setup_s": median(setup),
            "kbp_per_s": median(doc["ref_bases"] / 1e3 / w for w in walls),
            "latency_p50_ms": median(w * 1e3 for w in walls),
            "latency_p95_ms": percentile([w * 1e3 for w in walls], 95),
            "peak_rss_mb": median(r.maxrss_mb for r in runs),
            "index_mb": _mb(median(sizes)) if sizes else 0.0,
        },
        tally=tally,
        client={"launches": len(runs)},
        containers=[kept] if kept.exists() else [],
        spans_dir=_spans(trace, "measure"),
        measure_from_ns=measure_from,
    )


def _crc_mismatches(path: Path, want: list[dict]) -> int:
    """Segments whose bytes, as read back from ``path``, differ from the
    monolithic build's (name, size, CRC32)."""
    buf = np.memmap(path, dtype=np.uint8, mode="r")
    _, segments, data_start = read_flat_manifest(buf)
    got = []
    for seg in segments:
        lo = data_start + seg["offset"]
        got.append(dict(seg, crc32=zlib.crc32(buf[lo : lo + seg["nbytes"]]) & 0xFFFFFFFF))
    return check_segment_crcs(got, want)
