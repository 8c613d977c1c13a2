"""Streaming mapping: constant-memory processing of large FASTQ inputs.

The paper's workloads run to 100 M reads; materializing such a read set
in memory is neither necessary nor wise.  This module maps an *iterator*
of reads in fixed-size batches — mirroring the hardware host loop, which
"iteratively fetches query sequences from the host's memory" — writing
results incrementally and keeping only aggregate statistics resident.

Works with any read source: a list, :func:`repro.io.fastq.parse_fastq`
over an open (possibly gzipped) file, or a generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator

from ..core.counters import CounterScope
from ..index.fm_index import FMIndex
from ..telemetry import correlate, get_telemetry
from .mapper import Mapper
from .results import HITS_TSV_HEADER, MappedBatch, renumbered, write_hits_tsv


@dataclass
class StreamSummary:
    """Aggregate outcome of a streaming run."""

    n_reads: int = 0
    n_mapped: int = 0
    n_batches: int = 0
    wall_seconds: float = 0.0
    op_counts: dict[str, int] = field(default_factory=dict)

    @property
    def mapping_ratio(self) -> float:
        return self.n_mapped / self.n_reads if self.n_reads else 0.0

    @property
    def reads_per_second(self) -> float:
        # 0.0 on a zero-duration trial (empty stream, or a clock too
        # coarse to see it) — "no throughput measured", never inf/NaN,
        # so trajectory JSON and gate statistics stay finite.
        return self.n_reads / self.wall_seconds if self.wall_seconds > 0 else 0.0


def map_stream(
    index: FMIndex,
    reads: Iterable[str],
    batch_size: int = 2048,
    locate: bool = False,
    on_batch: Callable[[MappedBatch], None] | None = None,
) -> Iterator[MappedBatch]:
    """Yield mapping results batch by batch (generator; lazy).

    ``on_batch`` (if given) is additionally invoked per batch — handy for
    progress reporting or incremental writers.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    mapper = Mapper(index, locate=locate)
    tel = get_telemetry()
    batch: list[str] = []
    offset = 0
    batch_index = 0
    for read in reads:
        batch.append(read)
        if len(batch) == batch_size:
            results = _map_stream_batch(tel, mapper, batch, offset, batch_index)
            offset += len(batch)
            batch = []
            batch_index += 1
            if on_batch is not None:
                on_batch(results)
            yield results
    if batch:
        results = _map_stream_batch(tel, mapper, batch, offset, batch_index)
        if on_batch is not None:
            on_batch(results)
        yield results


def _map_stream_batch(tel, mapper: Mapper, batch: list[str], offset: int,
                      batch_index: int) -> MappedBatch:
    """One stream batch under its correlation id and span, numbered from
    the batch's global stream offset."""
    if not tel.enabled:
        return mapper.map_reads(batch).with_id_base(offset)
    with correlate(batch=batch_index):
        with tel.span(
            "mapper.stream_batch", cat="mapper",
            batch_index=batch_index, n_reads=len(batch),
        ):
            results = mapper.map_reads(batch).with_id_base(offset)
    tel.metrics.counter(
        "mapper_stream_batches_total", "Batches through the streaming mapper"
    ).inc()
    return results


def map_stream_coalesced(
    coalescer,
    reads: Iterable[str],
    chunk_size: int = 256,
    max_in_flight: int = 4,
    tenant: str = "stream",
    timeout: float | None = 120.0,
) -> Iterator[list[MappingResult]]:
    """Stream reads through a :class:`~repro.serving.coalescer.RequestCoalescer`
    in bounded chunks, yielding globally renumbered result batches.

    The bounded-memory ingest path: at most ``max_in_flight`` chunks are
    resident at once (submitted but not yet consumed), so a read set far
    larger than RAM flows through in ``chunk_size`` pieces while still
    sharing kernel batches with concurrent foreground requests.  Results
    come back in stream order with stream-global ``read_id``s — the same
    contract as :func:`map_stream`.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    tel = get_telemetry()
    pending: list = []  # (request_handle, global_offset) in stream order
    offset = 0
    chunk: list[str] = []

    def _drain_one():
        req, off = pending.pop(0)
        results = req.result(timeout=timeout)
        tel.metrics.counter(
            "mapper_stream_batches_total", "Batches through the streaming mapper"
        ).inc()
        return renumbered(results, off)

    try:
        for read in reads:
            chunk.append(read)
            if len(chunk) == chunk_size:
                pending.append((coalescer.submit(chunk, tenant=tenant), offset))
                offset += len(chunk)
                chunk = []
                if len(pending) >= max_in_flight:
                    yield _drain_one()
        if chunk:
            pending.append((coalescer.submit(chunk, tenant=tenant), offset))
        while pending:
            yield _drain_one()
    finally:
        # The consumer may abandon the generator mid-stream (early
        # ``close()``/GeneratorExit, or an error above): consume every
        # in-flight handle so submitted requests are not leaked into the
        # coalescer's pending set.
        while pending:
            req, _ = pending.pop(0)
            try:
                req.result(timeout=timeout)
            except Exception:
                pass


def map_fastq_to_tsv(
    index: FMIndex,
    reads: Iterable[str],
    out: IO[str],
    batch_size: int = 2048,
    locate: bool = True,
) -> StreamSummary:
    """Stream reads through the mapper, writing the hits TSV as it goes.

    Returns the aggregate :class:`StreamSummary`; peak memory is one
    batch of results regardless of input size.
    """
    summary = StreamSummary()
    counters = index.counters
    out.write(HITS_TSV_HEADER)
    t0 = time.perf_counter()
    with CounterScope(counters) as scope:
        for results in map_stream(index, reads, batch_size=batch_size, locate=locate):
            summary.n_batches += 1
            summary.n_reads += len(results)
            summary.n_mapped += results.n_mapped
            write_hits_tsv(results, out, header=False)
    summary.wall_seconds = time.perf_counter() - t0
    summary.op_counts = scope.delta
    return summary
