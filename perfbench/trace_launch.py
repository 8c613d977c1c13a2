"""Run ``bwaver-repro`` with spans recorded at its public entry points.

Usage::

    python3 perfbench/trace_launch.py --spans DIR -- <bwaver-repro arguments>

The launcher wraps public callables of each layer at class (or module)
level, then calls ``repro.cli.main`` with the given arguments, so a
traced server -- and the pool workers it forks, which inherit the
wrapped classes -- runs the same topology as an untraced one.  Spans
(name, start, end, span id, parent id, request id, attributes) stay in
memory and are written to ``DIR/spans-<pid>.json`` when the process
ends; a forked worker writes its own file at its clean exit.  The rank
kernel is called hundreds of times per search, so it is counted and
timed in aggregate instead of one span per call.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.aggs: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._agg_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, attrs=None, before=None, request_root=False):
        """Replace ``owner.attr`` by a spanning wrapper.  ``before(args)``
        runs ahead of the call; ``attrs(args, result, state)`` builds the
        span's attributes from the arguments, result and that state."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            outer_request = getattr(local, "request", 0)
            if request_root:
                local.request = next(tracer._requests)
            state = before(args) if before is not None else None
            stack.append(span_id)
            t0 = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
                t1 = time.perf_counter_ns()
                doc = attrs(args, result, state) if attrs is not None else None
                tracer.spans.append(
                    (name, t0, t1, span_id, parent, getattr(local, "request", 0), doc)
                )
            finally:
                stack.pop()
                if request_root:
                    local.request = outer_request
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, items=None) -> None:
        """Replace ``owner.attr`` by a wrapper that only accumulates
        calls, nanoseconds and ``items(args)`` per process."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            result = orig(*args, **kwargs)
            dt = time.perf_counter_ns() - t0
            n = items(args) if items is not None else 0
            with tracer._agg_lock:
                agg = tracer.aggs.setdefault(name, [0, 0, 0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += n
            return result

        setattr(owner, attr, wrapper)

    def count_generator(self, module, attr: str, name: str) -> None:
        """Time only the iteration of a generator function: one item per
        yielded record."""
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            spent = items = 0
            try:
                while True:
                    t0 = time.perf_counter_ns()
                    try:
                        rec = next(it)
                    except StopIteration:
                        return
                    finally:
                        spent += time.perf_counter_ns() - t0
                    items += 1
                    yield rec
            finally:
                with tracer._agg_lock:
                    agg = tracer.aggs.setdefault(name, [0, 0, 0])
                    agg[0] += 1
                    agg[1] += spent
                    agg[2] += items

        setattr(module, attr, wrapper)

    def after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "pid": self.pid,
            "spans": [
                {"name": n, "start": a, "end": b, "id": i, "parent": p, "request": r, "attrs": d}
                for n, a, b, i, p, r, d in list(self.spans)
            ],
            "aggs": {k: {"calls": v[0], "ns": v[1], "items": v[2]} for k, v in self.aggs.items()},
        }
        tmp = self.out_dir / f".spans-{self.pid}.tmp"
        tmp.write_text(json.dumps(doc))
        tmp.rename(self.out_dir / f"spans-{self.pid}.json")


def _n_reads(args, result, state):
    return {"reads": len(args[1])}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points."""
    import numpy as np

    import repro.index.build_stream as build_stream
    import repro.index.flat as flat
    import repro.io.fastq as fastq
    import repro.mapper.stream as stream
    from repro.core.bwt_structure import BWTStructure
    from repro.index.fm_index import FMIndex
    from repro.index.occ_table import OccTable
    from repro.mapper.mapper import Mapper
    from repro.sequence.sampled_sa import FullSA, SampledSA
    from repro.serving.pool import MapperPool
    from repro.serving.router import RouterMappingService, Shard, ShardRouter
    from repro.web.server import BWaveRApp

    tracer.wrap(
        BWaveRApp, "__call__", "web.request", request_root=True,
        attrs=lambda a, r, s: {
            "path": a[1].get("PATH_INFO", ""),
            "bytes": sum(len(chunk) for chunk in r),
        },
    )
    tracer.wrap(RouterMappingService, "map_request", "service.map_request", attrs=_n_reads)
    tracer.wrap(MapperPool, "map_reads", "pool.map_reads", attrs=_n_reads)
    tracer.wrap(ShardRouter, "map_reads", "router.map_reads", attrs=_n_reads)
    tracer.wrap(
        Shard, "map_reads", "shard.map_reads",
        attrs=lambda a, r, s: {"reads": len(a[1]), "hit": sum(1 for m in r if m.mapped)},
    )
    tracer.wrap(Mapper, "map_reads", "mapper.map_reads", attrs=_n_reads)
    tracer.wrap(
        FMIndex, "search_batch", "search.batch",
        before=lambda a: a[0].counters.ftab_lookups,
        attrs=lambda a, r, s: {
            "patterns": len(r[0]),
            "steps": int(np.sum(r[2])),
            "hits": int(np.count_nonzero(r[1] > r[0])),
            "ftab": int(a[0].counters.ftab_lookups - s),
        },
    )
    for cls in (FullSA, SampledSA):
        tracer.wrap(
            cls, "locate_range", "locate.range",
            attrs=lambda a, r, s: {"rows": int(a[2] - a[1])},
        )
    for cls in (BWTStructure, OccTable):
        tracer.count(cls, "occ2_many", "rank.occ2_many", items=lambda a: len(a[2]))
    tracer.wrap(
        stream, "map_fastq_to_tsv", "tsv.map_fastq_to_tsv",
        attrs=lambda a, r, s: {"reads": r.n_reads},
    )
    tracer.count_generator(fastq, "parse_fastq", "fastq.parse")
    tracer.wrap(flat, "load_any_index_auto", "flat.open")
    tracer.wrap(
        build_stream, "build_index_blockwise", "build.blockwise",
        attrs=lambda a, r, s: {"stages": dict(r.stage_seconds)},
    )


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer(Path(argv[1]))
    install(tracer)
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[3:])
    except KeyboardInterrupt:
        return 130
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
