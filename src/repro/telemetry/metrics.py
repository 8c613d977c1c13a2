"""Self-contained metrics registry: counters, gauges, histograms.

The registry mirrors the Prometheus client-library data model at the
scale this project needs: named metrics with fixed label names, families
of children keyed by label values, a JSON-able :meth:`MetricsRegistry.snapshot`
for programmatic consumption, and :meth:`MetricsRegistry.prometheus_text`
emitting the text exposition format served by ``GET /metrics``.

Everything is thread-safe (web jobs run on daemon threads) and pure
stdlib apart from numpy, which :meth:`Histogram.observe_many` uses to
bucket a whole array at once.  The null twins at the bottom
(:data:`NULL_REGISTRY` and friends) are what disabled telemetry hands
out: every mutation is a no-op on a shared singleton, so the
instrumented hot paths cost one attribute call when telemetry is off.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

#: Default histogram buckets, in seconds (the common unit here).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")


class MetricError(ValueError):
    """Metric misuse: name/type/label mismatches."""


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label_value(str(v))}"'
        for n, v in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


def _format_value(v: float) -> str:
    if v == _INF:
        return "+Inf"
    if v == int(v):
        return str(int(v))
    return repr(v)


class _Metric:
    """Shared machinery: label resolution and the child table."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            # Materialize the unlabeled child eagerly so the metric is
            # visible (at zero) from the moment it is declared.
            self._children[()] = self._new_child()

    def _new_child(self) -> object:
        raise NotImplementedError

    def _child(self, labels: Mapping[str, object]) -> object:
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items(), key=lambda kv: kv[0])


class _Value:
    """A float cell guarded by its own lock."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def _new_child(self) -> _Value:
        return _Value()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        cell: _Value = self._child(labels)  # type: ignore[assignment]
        cell.add(amount)

    def value(self, **labels: object) -> float:
        cell: _Value = self._child(labels)  # type: ignore[assignment]
        return cell.value


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def _new_child(self) -> _Value:
        return _Value()

    def set(self, value: float, **labels: object) -> None:
        cell: _Value = self._child(labels)  # type: ignore[assignment]
        cell.set(float(value))

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        cell: _Value = self._child(labels)  # type: ignore[assignment]
        cell.add(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        cell: _Value = self._child(labels)  # type: ignore[assignment]
        cell.add(-amount)

    def value(self, **labels: object) -> float:
        cell: _Value = self._child(labels)  # type: ignore[assignment]
        return cell.value


class _HistogramValue:
    __slots__ = ("_lock", "bucket_counts", "total", "count", "buckets")

    def __init__(self, buckets: tuple[float, ...]):
        self._lock = threading.Lock()
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # trailing +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.total += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    def observe_many(self, values: np.ndarray) -> None:
        # Bucket i holds values in (buckets[i-1], buckets[i]]: exactly the
        # first bound >= value, as in observe(); the tail lands in +Inf.
        idx = np.searchsorted(self.buckets, values, side="left")
        counts = np.bincount(idx, minlength=len(self.bucket_counts)).tolist()
        with self._lock:
            # cumsum adds in order, so the total is bit-identical to one
            # `total += value` per observation.
            self.total = float(np.cumsum(np.append(self.total, values))[-1])
            self.count += len(values)
            for i, c in enumerate(counts):
                self.bucket_counts[i] += c

    def cumulative(self) -> list[int]:
        """Bucket counts as Prometheus wants them (cumulative, incl +Inf)."""
        out: list[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


class Histogram(_Metric):
    """Distribution of observations over fixed buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise MetricError(f"histogram {name!r} needs at least one bucket")
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _HistogramValue:
        return _HistogramValue(self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        cell: _HistogramValue = self._child(labels)  # type: ignore[assignment]
        cell.observe(float(value))

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        """Record every value of ``values`` under one lock acquisition;
        the exposition is that of one :meth:`observe` per value."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        cell: _HistogramValue = self._child(labels)  # type: ignore[assignment]
        cell.observe_many(arr)


class MetricsRegistry:
    """Named metrics with get-or-create declaration semantics.

    Declaring the same name twice returns the existing metric, provided
    kind and label names agree — so instrumented call sites can declare
    inline without coordinating module import order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- declaration -----------------------------------------------------------

    def _get_or_create(
        self, cls: type, name: str, help: str, labelnames: Sequence[str], **kwargs: object
    ) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, help, labelnames, **kwargs)
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise MetricError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"  # type: ignore[attr-defined]
            )
        if metric.labelnames != tuple(labelnames):
            raise MetricError(
                f"metric {name!r} already registered with labels "
                f"{metric.labelnames}, not {tuple(labelnames)}"
            )
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )  # type: ignore[return-value]

    # -- introspection ---------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """Everything, as one JSON-able document."""
        out: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            samples = []
            for key, cell in metric.samples():
                labels = dict(zip(metric.labelnames, key))
                if isinstance(cell, _HistogramValue):
                    samples.append(
                        {
                            "labels": labels,
                            "count": cell.count,
                            "sum": cell.total,
                            "buckets": {
                                _format_value(b): c
                                for b, c in zip(
                                    (*metric.buckets, _INF), cell.cumulative()  # type: ignore[attr-defined]
                                )
                            },
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": cell.value})  # type: ignore[union-attr]
            out[name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": samples,
            }
        return out

    def prometheus_text(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, cell in metric.samples():
                if isinstance(cell, _HistogramValue):
                    bounds = (*metric.buckets, _INF)  # type: ignore[attr-defined]
                    for bound, count in zip(bounds, cell.cumulative()):
                        label_str = _format_labels(
                            (*metric.labelnames, "le"),
                            (*key, _format_value(bound)),
                        )
                        lines.append(f"{name}_bucket{label_str} {count}")
                    base = _format_labels(metric.labelnames, key)
                    lines.append(f"{name}_sum{base} {_format_value(cell.total)}")
                    lines.append(f"{name}_count{base} {cell.count}")
                else:
                    label_str = _format_labels(metric.labelnames, key)
                    lines.append(
                        f"{name}{label_str} {_format_value(cell.value)}"  # type: ignore[union-attr]
                    )
        return "\n".join(lines) + ("\n" if lines else "")


# -- disabled-mode twins -------------------------------------------------------


class _NullChildOps:
    """Accepts every metric mutation and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0


_NULL_METRIC = _NullChildOps()


class NullRegistry:
    """Registry twin handed out when telemetry is disabled."""

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _NullChildOps:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _NullChildOps:
        return _NULL_METRIC

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> _NullChildOps:
        return _NULL_METRIC

    def names(self) -> list[str]:
        return []

    def snapshot(self) -> dict[str, dict]:
        return {}

    def prometheus_text(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()
