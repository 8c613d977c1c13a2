"""Unified telemetry: metrics registry, tracing spans, structured logs.

Public surface::

    from repro.telemetry import get_telemetry, configure, correlate

    tel = configure(enabled=True)          # install a live instance
    with correlate(run_id=new_run_id()):
        with tel.span("index.build", b=15):
            ...
        tel.metrics.counter("index_builds_total", "Builds").inc()
    print(tel.metrics.prometheus_text())   # GET /metrics body
    tel.tracer.write_chrome_trace(open("trace.json", "w"))

See DESIGN.md §7 for the metric-name and span taxonomies.
"""

from .context import correlate, correlation_ids, new_run_id
from .logs import NULL_LOGGER, JsonLogger, NullLogger
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
)
from .runtime import Telemetry, configure, get_telemetry, set_telemetry
from .tracing import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricError",
    "MetricsRegistry",
    "NULL_LOGGER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullLogger",
    "NullRegistry",
    "NullTracer",
    "Telemetry",
    "Tracer",
    "configure",
    "correlate",
    "correlation_ids",
    "get_telemetry",
    "new_run_id",
    "set_telemetry",
]
