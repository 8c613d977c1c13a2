"""End-to-end telemetry: one mapping run lights up the whole stack.

These tests back the PR's acceptance criteria directly: a single run
must expose ten-plus distinct metric names spanning the index, mapper,
fpga and fault subsystems, and the exported Chrome trace must carry the
application spans and the modeled device timeline on one clock.
"""

import io
import json

import numpy as np
import pytest

from repro import build_index
from repro.faults import FaultPlan
from repro.fpga.accelerator import FPGAAccelerator
from repro.mapper.mapper import Mapper
from repro.telemetry import Telemetry, set_telemetry


@pytest.fixture()
def tel() -> Telemetry:
    return set_telemetry(Telemetry(enabled=True, log_stream=io.StringIO()))


def _run_pipeline(tel: Telemetry, fault_plan=None):
    rng = np.random.default_rng(99)
    text = "".join("ACGT"[c] for c in rng.integers(0, 4, 3000))
    index, _ = build_index(text, b=15, sf=8)
    reads = [text[i : i + 32] for i in range(0, 320, 32)]
    Mapper(index).map_reads(reads)
    acc = FPGAAccelerator.for_index(index, fault_plan=fault_plan)
    run = acc.map_batch(reads, batch_size=4)
    return index, run


class TestFullRun:
    def test_ten_plus_metric_names_across_subsystems(self, tel):
        _run_pipeline(tel)
        names = set(tel.metrics.names())
        assert len(names) >= 10
        prefixes = {n.split("_")[0] for n in names}
        for subsystem in ("index", "mapper", "fm", "fpga", "fault"):
            assert any(n.startswith(subsystem) for n in names), (
                f"no {subsystem}* metric in {sorted(names)}"
            )

    def test_prometheus_snapshot_parses(self, tel):
        _run_pipeline(tel)
        text = tel.metrics.prometheus_text()
        assert "index_builds_total 1" in text
        for stage in ("sa", "bwt", "encode", "finalize"):
            assert f'index_build_stage_seconds_count{{stage="{stage}"}} 1' in text
        assert "fpga_runs_total 1" in text
        for line in text.splitlines():
            assert line.startswith("#") or " " in line

    def test_trace_merges_app_and_device_timelines(self, tel):
        _run_pipeline(tel)
        buf = io.StringIO()
        n = tel.tracer.write_chrome_trace(buf)
        assert n >= 5
        events = json.loads(buf.getvalue())["traceEvents"]
        slices = [e for e in events if e.get("ph") == "X"]
        assert {e["pid"] for e in slices} == {0, 1}
        device_cats = {e["cat"] for e in slices if e["pid"] == 1}
        assert {"write_buffer", "kernel", "read_buffer"} <= device_cats
        app_names = {e["name"] for e in slices if e["pid"] == 0}
        assert {"index.build", "index.sa", "index.bwt", "index.encode",
                "index.finalize"} <= app_names
        assert "fpga.map_batch" in app_names
        # Shared clock: device slices fall inside the run's span window.
        run_span = next(e for e in slices if e["name"] == "fpga.map_batch")
        for e in slices:
            if e["pid"] == 1:
                assert run_span["ts"] <= e["ts"] + 1e-6
                assert e["ts"] <= run_span["ts"] + run_span["dur"] + 1e-6

    def test_batch_spans_carry_run_and_batch_ids(self, tel):
        _run_pipeline(tel)
        batches = [
            e
            for e in tel.tracer.chrome_events()
            if e.get("ph") == "X" and e["name"] == "fpga.batch"
        ]
        assert len(batches) >= 2
        run_ids = {e["args"]["run_id"] for e in batches}
        assert len(run_ids) == 1
        assert {e["args"]["batch"] for e in batches} == set(range(len(batches)))

    def test_log_lines_correlated(self, tel):
        _run_pipeline(tel)
        lines = [
            json.loads(line)
            for line in tel.log._stream.getvalue().splitlines()
        ]
        done = [d for d in lines if d["event"] == "fpga.map_batch.done"]
        assert len(done) == 1
        assert "run_id" in done[0]


class TestFaultCounters:
    def test_injected_faults_reach_the_registry(self, tel):
        plan = FaultPlan(seed=3, transfer_corrupt_prob=1.0, max_faults=2)
        _, run = _run_pipeline(tel, fault_plan=plan)
        assert run.retries > 0
        names = set(tel.metrics.names())
        assert "fault_injected_total" in names
        assert "fault_detected_total" in names
        assert "device_faults_total" in names
        assert "device_state_transitions_total" in names
        m = tel.metrics
        assert m.counter(
            "fault_injected_total", labelnames=("kind",)
        ).value(kind="transfer_corrupted") == 2
        assert m.counter("fpga_retries_total").value() == run.retries
        text = tel.metrics.prometheus_text()
        assert 'device_faults_total{kind="TransferError"}' in text

    def test_recovery_ladder_exhaustion_counts_fallbacks(self, tel):
        plan = FaultPlan(seed=5, transfer_corrupt_prob=1.0)  # unbounded
        _, run = _run_pipeline(tel, fault_plan=plan)
        assert run.degraded
        m = tel.metrics
        assert m.counter("fpga_cpu_fallbacks_total").value() > 0
        assert m.counter("device_resets_total").value() == run.reprograms
        # The fault instants land on the trace as zero-duration markers.
        instants = [
            e for e in tel.tracer.chrome_events() if e.get("ph") == "i"
        ]
        assert any(e["name"].startswith("fault.detected.") for e in instants)
        assert any(e["name"].startswith("fault.injected.") for e in instants)

    def test_zero_fault_counters_exposed_eagerly(self, tel):
        """A clean run still exposes the fault ladder counters, at zero."""
        _run_pipeline(tel)
        text = tel.metrics.prometheus_text()
        assert "fpga_retries_total 0" in text
        assert "fpga_reprograms_total 0" in text
        assert "fpga_cpu_fallbacks_total 0" in text
