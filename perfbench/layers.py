"""Per-layer table of a traced run.

Reads the span files the tracing launcher wrote (one per process), keeps
the spans that started in the timed phase, and derives each layer's
count, busy time and self time.  Spans from different processes share
``CLOCK_MONOTONIC``, so a worker-side span is attributed to the
server-side call whose interval contains it.  A layer the workload never
runs reports 0.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from stats import median


def load_spans(spans_dir: Path | None) -> tuple[list[dict], dict[str, list[int]]]:
    """All spans (tagged with their pid) and the summed aggregates."""
    spans: list[dict] = []
    aggs: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    if spans_dir is None or not spans_dir.is_dir():
        return spans, aggs
    for path in sorted(spans_dir.glob("spans-*.json")):
        doc = json.loads(path.read_text())
        for s in doc["spans"]:
            s["pid"] = doc["pid"]
            spans.append(s)
        for name, a in doc["aggs"].items():
            agg = aggs[name]
            agg[0] += a["calls"]
            agg[1] += a["ns"]
            agg[2] += a["items"]
    return spans, aggs


def _ms(s: dict) -> float:
    return (s["end"] - s["start"]) / 1e6


def _within(inner: dict, outer: dict) -> bool:
    return inner["start"] >= outer["start"] and inner["end"] <= outer["end"]


def layer_table(result, calib_ms: float, names: list[str]) -> dict[str, float]:
    """The per-layer metrics ``names`` (as ``BENCHMARK.json`` declares
    them) for one traced workload."""
    out = {name: 0.0 for name in names}
    out["host.calib_ms"] = calib_ms
    all_spans, aggs = load_spans(result.spans_dir)
    spans = [s for s in all_spans if s["start"] >= result.measure_from_ns]
    by: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    children: dict[tuple[int, int], list[dict]] = defaultdict(list)
    for s in spans:
        children[(s["pid"], s["parent"])].append(s)

    def child_ms(s: dict, names: tuple[str, ...]) -> float:
        return sum(_ms(c) for c in children[(s["pid"], s["id"])] if c["name"] in names)

    # web.server: request handling outside the mapping service.
    reqs = [s for s in by["web.request"] if s["attrs"]["path"] == "/map"]
    if reqs:
        out["web.self_ms"] = median(_ms(r) - child_ms(r, ("service.map_request",)) for r in reqs)
        out["web.resp_kb"] = median(r["attrs"]["bytes"] / 1024 for r in reqs)

    client = result.client
    if "wait_ms" in client:
        out["coalescer.wait_ms"] = client["wait_ms"]
        out["coalescer.reads_per_batch"] = client["batch_reads"]
        out["coalescer.requests_per_batch"] = client["batch_reads"] / client["request_reads"]
        out["loadgen.sent"] = client["sent"]
        out["loadgen.ok"] = client["ok"]
        out["loadgen.failed"] = client["failed"]

    # serving.pool: call time in the server, minus the worker's mapping.
    # Every shard has its own pool, so other shards' workers map inside
    # the same interval; the call's own worker is the one whose mapping
    # ends last within it, just before the reply comes back.
    pool_calls = by["pool.map_reads"]
    if pool_calls:
        out["pool.call_ms"] = median(_ms(p) for p in pool_calls)
        out["pool.ipc_ms"] = median(
            _ms(p) - max(
                (m["end"] - m["start"] for m in by["mapper.map_reads"]
                 if m["pid"] != p["pid"] and _within(m, p)),
                default=0,
            ) / 1e6
            for p in pool_calls
        )

    # serving.router: fan-out across shards, then the merge.
    routes = by["router.map_reads"]
    if routes:
        sums, maxes, merges = [], [], []
        for r in routes:
            shards = [s for s in by["shard.map_reads"] if _within(s, r)]
            if not shards:
                continue
            sums.append(sum(_ms(s) for s in shards))
            maxes.append(max(_ms(s) for s in shards))
            fan_out = (max(s["end"] for s in shards) - min(s["start"] for s in shards)) / 1e6
            merges.append(_ms(r) - fan_out)
        out["router.call_ms"] = median(_ms(r) for r in routes)
        out["router.shard_ms_sum"] = median(sums)
        out["router.shard_ms_max"] = median(maxes)
        out["router.merge_ms"] = median(merges)
        shard_spans = by["shard.map_reads"]
        searched = sum(s["attrs"]["reads"] for s in shard_spans)
        if searched:
            out["router.useful_shard_share"] = sum(s["attrs"]["hit"] for s in shard_spans) / searched

    # mapper.mapper: per-read Python around the search and locate calls.
    mappers = by["mapper.map_reads"]
    if mappers:
        reads = sum(m["attrs"]["reads"] for m in mappers)
        self_ms = sum(_ms(m) - child_ms(m, ("search.batch", "locate.range")) for m in mappers)
        out["mapper.reads_per_call"] = median(m["attrs"]["reads"] for m in mappers)
        out["mapper.self_ms_per_kread"] = self_ms / reads * 1e3 if reads else 0.0

    # mapper.stream and io.fastq: the CLI's TSV path.
    tsvs = by["tsv.map_fastq_to_tsv"]
    _, fastq_ns, fastq_items = aggs.get("fastq.parse", [0, 0, 0])
    if fastq_items:
        out["fastq.ms_per_kread"] = fastq_ns / 1e6 / fastq_items * 1e3
    if tsvs:
        reads = sum(t["attrs"]["reads"] for t in tsvs)
        self_ms = sum(_ms(t) - child_ms(t, ("mapper.map_reads",)) for t in tsvs) - fastq_ns / 1e6
        out["tsv.self_ms_per_kread"] = self_ms / reads * 1e3 if reads else 0.0

    # index.fm_index and index.ftab: the backward-search step loop.
    searches = by["search.batch"]
    if searches:
        patterns = sum(s["attrs"]["patterns"] for s in searches)
        steps = sum(s["attrs"]["steps"] for s in searches)
        out["search.calls"] = len(searches)
        out["search.patterns"] = patterns
        out["search.steps"] = steps
        out["search.ms_per_call"] = median(_ms(s) for s in searches)
        out["search.ns_per_step"] = sum(s["end"] - s["start"] for s in searches) / steps if steps else 0.0
        out["search.hit_share"] = sum(s["attrs"]["hits"] for s in searches) / patterns if patterns else 0.0
        out["ftab.lookups"] = sum(s["attrs"]["ftab"] for s in searches)

    # core wavelet/RRR: the rank kernel.  Aggregates cover each process's
    # whole life, so they are divided by that life's search count.
    rank_calls, rank_ns, rank_items = aggs.get("rank.occ2_many", [0, 0, 0])
    life_searches = sum(1 for s in all_spans if s["name"] == "search.batch")
    if rank_calls:
        out["rank.calls_per_search"] = rank_calls / life_searches if life_searches else 0.0
        out["rank.us_per_call"] = rank_ns / rank_calls / 1e3
        out["rank.queries_per_call"] = rank_items / rank_calls

    # sequence.sampled_sa: locate.
    locates = by["locate.range"]
    rows = sum(s["attrs"]["rows"] for s in locates)
    if rows:
        out["locate.rows"] = rows
        out["locate.us_per_row"] = sum(s["end"] - s["start"] for s in locates) / rows / 1e3
        out["locate.returned_share"] = client.get("positions_returned", 0) / rows

    # index.flat: open time and container bytes by segment group.
    if result.containers:
        out["flat.open_ms"] = _open_ms(result.containers)
        for group, nbytes in _segment_bytes(result.containers).items():
            key = f"flat.segment_mb.{group}"
            if key in out:
                out[key] = nbytes / (1 << 20)

    # index.build_stream: stage seconds reported by the blockwise build.
    builds = by["build.blockwise"]
    for stage in ("sa", "bwt", "encode", "finalize"):
        vals = [b["attrs"]["stages"].get(stage, 0.0) for b in builds]
        if vals:
            out[f"build.{stage}_s"] = median(vals)
    undeclared = sorted(set(out) - set(names))
    if undeclared:
        raise ValueError(f"per-layer metrics missing from BENCHMARK.json: {undeclared}")
    return out


def _open_ms(containers: list[Path], reps: int = 5) -> float:
    """Median over ``reps`` of opening every container once."""
    from repro.index.flat import load_any_index_auto

    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for c in containers:
            load_any_index_auto(c)
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)


def _segment_bytes(containers: list[Path]) -> dict[str, int]:
    import numpy as np
    from repro.index.flat import read_flat_manifest

    groups: dict[str, int] = defaultdict(int)
    for c in containers:
        for seg in read_flat_manifest(np.memmap(c, dtype=np.uint8, mode="r"))[1]:
            groups[seg["name"].split("/", 1)[0]] += seg["nbytes"]
    return groups
