"""Seeded input cache: references, FASTQ files, request bodies, manifests.

Inputs come from the program's public generators (``repro.io.refgen``
and ``repro.io.readsim``) and its public ``index`` command, and are built
once per (workload, seed, program) outside every timed phase: simulating
reads that must *not* occur in the reference costs about a millisecond
each.  The program only ever sees the generated files and request bodies.

Much of the cache is the program's own output (references, reads,
containers, the monolithic build's CRCs), so it is keyed on a digest of
the program's source as well: a checkout of another commit builds its
own inputs instead of being measured against another commit's.  Each
workload's inputs live in
``.perfbench-work/inputs/<workload>-s<seed>-<digest>`` and are reused
while ``inputs.json`` there is present; only the ``KEEP_SEEDS`` most
recently used input sets per workload stay on disk.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

import numpy as np
from repro.index.flat import read_flat_manifest
from repro.io.fasta import FastaRecord, write_fasta
from repro.io.fastq import FastqRecord, write_fastq
from repro.io.readsim import simulate_reads
from repro.io.refgen import CHR21_LIKE, E_COLI_LIKE, generate_reference

from oracle import expected_catalog_hits, expected_tsv_row
from procs import BENCH, ROOT, SRC, WORK, BenchError, cli_prefix, run_cli

#: Reads per bulk FASTQ (``map_bulk``): one launch maps them in about 2 s.
BULK_READS = 16384
#: Rows of each bulk output checked against the oracle.
BULK_CHECKED = 512
#: ``http_catalog`` request size, body pool and shard count.
CATALOG_REQUEST_READS = 256
CATALOG_BODIES = 16
CATALOG_CHECKED_PER_BODY = 16
CATALOG_SHARDS = 4
#: Reference sizes as ``refgen`` profile scales.
ECOLI_SCALE = 0.03  # 139 kbp
CATALOG_SCALE = 0.01  # 401 kbp, four ~100 kbp shards
BUILD_SCALE = 0.05  # 2.0 Mbp chr21-like
READ_LENGTH = 100
PROFILES = {"ecoli": E_COLI_LIKE, "chr21": CHR21_LIKE}
KEEP_SEEDS = 12


def _reference(profile: str, scale: float, seed: int) -> str:
    return generate_reference(PROFILES[profile], scale=scale, seed=seed)


def _write_fasta(path: Path, name: str, seq: str) -> None:
    write_fasta([FastaRecord(name, "generated", seq)], path)


def _reads(ref: str, n: int, ratio: float, seed: int) -> list[str]:
    return simulate_reads(
        ref, n_reads=n, read_length=READ_LENGTH, mapping_ratio=ratio, seed=seed
    ).reads


def _write_fastq(path: Path, reads: list[str]) -> None:
    write_fastq(
        [FastqRecord(name=f"r{i}", sequence=s, quality="I" * len(s)) for i, s in enumerate(reads)],
        path,
    )


def _index(fasta: Path, out: Path, flags: list[str], log_dir: Path) -> None:
    run = run_cli(cli_prefix() + ["index", str(fasta), "-o", str(out)] + flags, log_dir)
    if run.returncode != 0:
        raise BenchError(f"index build for inputs failed: {run.stderr[-500:]}")


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted(rng.sample(range(n), min(k, n)))


def _make_map_bulk(d: Path, seed: int) -> dict:
    ref = _reference("ecoli", ECOLI_SCALE, seed)
    _write_fasta(d / "ref.fa", "synthetic_ecoli", ref)
    reads = _reads(ref, BULK_READS, 0.5, seed + 1)
    _write_fastq(d / "reads.fq", reads)
    _write_fastq(d / "one.fq", reads[:1])
    _index(d / "ref.fa", d / "ref.bwvr", ["--format", "flat", "--ftab-k", "10"], d / "log")
    rng = random.Random(seed)
    checked = _sample(rng, len(reads), BULK_CHECKED)
    return {
        "fasta": "ref.fa",
        "index": "ref.bwvr",
        "fastq": "reads.fq",
        "one_fastq": "one.fq",
        "n_reads": len(reads),
        "read_bases": sum(map(len, reads)),
        "expected_rows": {str(i): expected_tsv_row(i, ref, reads[i]) for i in checked},
        "one_row": expected_tsv_row(0, ref, reads[0]),
    }


def _make_http_catalog(d: Path, seed: int) -> dict:
    ref = _reference("chr21", CATALOG_SCALE, seed)
    step = -(-len(ref) // CATALOG_SHARDS)
    shards = []
    for k in range(CATALOG_SHARDS):
        name = f"q{k}"
        seq = ref[k * step : (k + 1) * step]
        _write_fasta(d / f"{name}.fa", name, seq)
        _index(d / f"{name}.fa", d / f"{name}.bwvr", ["--format", "flat", "--locate", "sampled"],
               d / "log")
        shards.append((name, seq))
    (d / "manifest.json").write_text(
        json.dumps({"shards": [{"name": n, "path": f"{n}.bwvr"} for n, _ in shards]})
    )
    reads = _reads(ref, CATALOG_BODIES * CATALOG_REQUEST_READS, 0.75, seed + 1)
    rng = random.Random(seed)
    bodies = []
    for b in range(CATALOG_BODIES):
        chunk = reads[b * CATALOG_REQUEST_READS : (b + 1) * CATALOG_REQUEST_READS]
        checked = _sample(rng, len(chunk), CATALOG_CHECKED_PER_BODY)
        bodies.append({
            "reads": chunk,
            "expected": {str(i): expected_catalog_hits(shards, chunk[i]) for i in checked},
        })
    return {
        "manifest": "manifest.json",
        "containers": [f"{n}.bwvr" for n, _ in shards],
        "bodies": bodies,
    }


def _make_index_build(d: Path, seed: int) -> dict:
    ref = _reference("chr21", BUILD_SCALE, seed)
    _write_fasta(d / "ref.fa", "synthetic_chr21", ref)
    tiny = _reference("chr21", 1e-9, seed)  # refgen's 1 kbp floor
    _write_fasta(d / "tiny.fa", "tiny", tiny)
    # Reference for the parity check: a monolithic build of the same
    # reference; only its manifest (names, sizes, CRCs) is kept.
    _index(d / "ref.fa", d / "mono.bwvr",
           ["--format", "flat", "--locate", "sampled", "--ftab-k", "10"], d / "log")
    segments = read_flat_manifest(np.memmap(d / "mono.bwvr", dtype=np.uint8, mode="r"))[1]
    (d / "mono.bwvr").unlink()
    return {
        "fasta": "ref.fa",
        "tiny_fasta": "tiny.fa",
        "ref_bases": len(ref),
        "mono_segments": segments,
    }


_MAKERS = {
    "map_bulk": _make_map_bulk,
    "http_catalog": _make_http_catalog,
    "index_build": _make_index_build,
}


def program_digest() -> str:
    """Digest of every file under ``src/repro`` plus the benchmark code
    that shapes the cached inputs and their expected answers."""
    files = sorted(p for p in (SRC / "repro").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for p in files + [BENCH / "inputs.py", BENCH / "oracle.py"]:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def prepare(workload: str, seed: int) -> tuple[Path, dict]:
    """Return ``(input dir, input description)``, building them first if
    this (workload, seed) has not been prepared by this program yet."""
    base = WORK / "inputs"
    d = base / f"{workload}-s{seed}-{program_digest()}"
    doc_path = d / "inputs.json"
    if doc_path.is_file():
        doc_path.touch()
        return d, json.loads(doc_path.read_text())
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    doc = _MAKERS[workload](d, seed)
    tmp = d / "inputs.json.tmp"
    tmp.write_text(json.dumps(doc))
    tmp.rename(doc_path)
    _prune(base, workload, keep=d)
    return d, doc


def _prune(base: Path, workload: str, keep: Path) -> None:
    dirs = [p for p in base.glob(f"{workload}-s*") if p.is_dir() and p != keep]
    dirs.sort(key=lambda p: (p / "inputs.json").stat().st_mtime if (p / "inputs.json").exists() else 0)
    for p in dirs[: max(0, len(dirs) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(p, ignore_errors=True)
