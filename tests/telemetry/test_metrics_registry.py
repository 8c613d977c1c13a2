"""Unit tests for the metrics registry and Prometheus exposition."""

import json
import threading

import pytest

from repro.telemetry import (
    NULL_REGISTRY,
    MetricError,
    MetricsRegistry,
)


@pytest.fixture()
def reg() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, reg):
        c = reg.counter("requests_total", "Requests")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_negative_increment_rejected(self, reg):
        c = reg.counter("requests_total")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labeled_children_are_independent(self, reg):
        c = reg.counter("hits_total", labelnames=("route",))
        c.inc(route="/jobs")
        c.inc(2, route="/metrics")
        assert c.value(route="/jobs") == 1
        assert c.value(route="/metrics") == 2

    def test_wrong_label_set_rejected(self, reg):
        c = reg.counter("hits_total", labelnames=("route",))
        with pytest.raises(MetricError):
            c.inc(method="GET")
        with pytest.raises(MetricError):
            c.inc(route="/", method="GET")

    def test_unlabeled_metric_visible_at_zero(self, reg):
        reg.counter("lonely_total", "Never incremented")
        assert "lonely_total 0" in reg.prometheus_text()


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(10)
        g.inc()
        g.dec(4)
        assert g.value() == 7


class TestHistogram:
    def test_bucket_placement_cumulative(self, reg):
        h = reg.histogram("latency_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        snap = reg.snapshot()["latency_seconds"]["samples"][0]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)
        # Cumulative: <=0.1 has 1, <=1.0 has 3, +Inf has all 4.
        assert snap["buckets"] == {"0.1": 1, "1": 3, "+Inf": 4}

    def test_needs_buckets(self, reg):
        with pytest.raises(MetricError):
            reg.histogram("empty", buckets=())


class TestRegistrySemantics:
    def test_get_or_create_idempotent(self, reg):
        a = reg.counter("x_total", labelnames=("k",))
        b = reg.counter("x_total", labelnames=("k",))
        assert a is b

    def test_kind_mismatch_rejected(self, reg):
        reg.counter("x_total")
        with pytest.raises(MetricError):
            reg.gauge("x_total")

    def test_labelnames_mismatch_rejected(self, reg):
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(MetricError):
            reg.counter("x_total", labelnames=("b",))

    def test_snapshot_json_serializable(self, reg):
        reg.counter("c_total", labelnames=("k",)).inc(k="v")
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.3)
        json.dumps(reg.snapshot())  # must not raise

    def test_concurrent_increments_exact(self, reg):
        c = reg.counter("contended_total", labelnames=("worker",))
        h = reg.histogram("contended_seconds")
        n_threads, n_iter = 8, 2000

        def work(i: int) -> None:
            for _ in range(n_iter):
                c.inc(worker=str(i % 2))
                h.observe(0.001)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = c.value(worker="0") + c.value(worker="1")
        assert total == n_threads * n_iter
        snap = reg.snapshot()["contended_seconds"]["samples"][0]
        assert snap["count"] == n_threads * n_iter


class TestPrometheusText:
    def test_format_structure(self, reg):
        reg.counter("jobs_total", "Jobs run", labelnames=("status",)).inc(
            status="done"
        )
        text = reg.prometheus_text()
        assert "# HELP jobs_total Jobs run" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{status="done"} 1' in text
        assert text.endswith("\n")

    def test_histogram_series(self, reg):
        reg.histogram("d_seconds", buckets=(1.0,)).observe(0.5)
        text = reg.prometheus_text()
        assert 'd_seconds_bucket{le="1"} 1' in text
        assert 'd_seconds_bucket{le="+Inf"} 1' in text
        assert "d_seconds_sum 0.5" in text
        assert "d_seconds_count 1" in text

    def test_label_value_escaping(self, reg):
        reg.counter("weird_total", labelnames=("v",)).inc(v='a"b\\c\nd')
        text = reg.prometheus_text()
        assert r'weird_total{v="a\"b\\c\nd"} 1' in text

    def test_integer_values_render_without_decimal(self, reg):
        reg.counter("n_total").inc(3)
        assert "n_total 3" in reg.prometheus_text()


class TestNullRegistry:
    def test_all_operations_are_noops(self):
        c = NULL_REGISTRY.counter("whatever_total", labelnames=("k",))
        c.inc(17, k="v")
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.names() == []
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.prometheus_text() == ""
        assert c.value(k="v") == 0.0


class TestHistogramObserveMany:
    def test_same_exposition_as_one_observe_per_value(self):
        import numpy as np

        rng = np.random.default_rng(5)
        values = np.concatenate(
            [rng.integers(0, 12, 500), [0.1, 1.0, 2.5, 1e9, -3.0], rng.random(50) * 4]
        )
        one, many = MetricsRegistry(), MetricsRegistry()
        h1 = one.histogram("steps_saved", "help", buckets=(0, 1, 2.5, 5, 10))
        for v in values:
            h1.observe(float(v))
        h2 = many.histogram("steps_saved", "help", buckets=(0, 1, 2.5, 5, 10))
        h2.observe_many(values[:300])
        h2.observe_many(values[300:])
        h2.observe_many(np.zeros(0))
        assert many.prometheus_text() == one.prometheus_text()

    def test_labeled_and_null(self):
        reg = MetricsRegistry()
        h = reg.histogram("x", labelnames=("path",), buckets=(1.0,))
        h.observe_many([0.5, 2.0], path="a")
        snap = reg.snapshot()["x"]["samples"][0]
        assert snap["count"] == 2 and snap["buckets"] == {"1": 1, "+Inf": 2}
        NULL_REGISTRY.histogram("x").observe_many([1.0])
