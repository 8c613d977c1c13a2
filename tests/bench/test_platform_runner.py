"""End-to-end platform tests: dispatcher, telemetry capture, CLI exit codes.

These execute real (tiny-scale) workloads through the runner, then
drive the ``repro bench`` CLI the way CI does — run, gate, report —
asserting on exit codes rather than internals.  The
statistical behaviour itself is unit-tested in ``test_platform.py``;
here only determinism, provenance, and plumbing are at stake, so no
assertion depends on how fast this machine happens to be.
"""

import numpy as np
import pytest

from repro.bench.platform import (
    ExperimentConfig,
    ResultsStore,
    TrialRecord,
    run_experiments,
    save_suite,
)
from repro.cli import main

TINY = ExperimentConfig(
    name="count_only_tiny", workload="count_only_mapping", scale="tiny",
    repetitions=3, warmup=1, seed=7,
)


@pytest.fixture
def store(tmp_path):
    with ResultsStore(tmp_path / "store") as s:
        yield s


class TestRunner:
    def test_tiny_experiment_persists_provenance_and_phases(self, store):
        report = run_experiments([TINY], store, git_hash="abc123", host="h1")
        assert not report.skipped
        records = store.query(workload="count_only_mapping")
        assert len(records) == 4  # 1 warmup + 3 steady
        assert [r.phase for r in records] == ["warmup"] + ["steady"] * 3
        for r in records:
            assert r.git_hash == "abc123"
            assert r.host == "h1"
            assert r.seed == 7
            assert r.config_hash == TINY.config_hash()
            assert r.wall_seconds > 0
        assert len(store.samples("count_only_mapping")) == 3
        # One JSON document per trial next to the SQLite projection.
        assert len(list(store.trials_dir.glob("*.json"))) == 4

    def test_trial_metrics_capture_telemetry_counters(self, store):
        run_experiments([TINY], store, git_hash="abc123", host="h1")
        (rec,) = store.query(workload="count_only_mapping", phase="steady")[:1]
        # Workload-reported op counts...
        assert rec.metrics["reads"] == 100
        assert rec.metrics["bs_steps"] > 0
        # ...plus the ftab counters the search path emits (satellite 6):
        # every read is long enough to jump-start, so hits == reads.
        assert rec.metrics["ftab_hits_total"] == 100.0

    def test_reruns_are_deterministic_in_everything_but_time(self, store):
        run_experiments([TINY], store, git_hash="a", host="h1")
        run_experiments([TINY], store, git_hash="b", host="h1")
        a = store.query(git_hash="a", phase="steady")
        b = store.query(git_hash="b", phase="steady")
        keys = ("reads", "bs_steps", "hits", "ftab_hits_total")
        for ra, rb in zip(a, b):
            assert {k: ra.metrics.get(k) for k in keys} == \
                   {k: rb.metrics.get(k) for k in keys}

    def test_broken_experiment_is_skipped_loudly(self, store):
        bad = ExperimentConfig(name="nope", workload="no_such_workload",
                               scale="tiny")
        messages = []
        report = run_experiments([bad, TINY], store, git_hash="x", host="h1",
                                 progress=messages.append)
        assert [name for name, _ in report.skipped] == ["nope"]
        assert "no_such_workload" in report.skipped[0][1]
        assert any("FAILED" in m for m in messages)
        # The rest of the matrix still ran.
        assert len(report.steady("count_only_mapping")) == 3

    def test_inner_loop_keeps_per_op_units(self, store):
        flat = ExperimentConfig(name="flat_tiny", workload="flat_open",
                                scale="tiny", repetitions=2, warmup=0)
        run_experiments([flat], store, git_hash="x", host="h1")
        for r in store.query(workload="flat_open"):
            assert r.metrics["inner_loop"] == 10
            assert r.metrics["n_rows"] > 0


# --- CLI ---------------------------------------------------------------


def _plant(store_root, workload, baseline_s, current_s, reps=10,
           baseline_host="h1"):
    import time

    rng = np.random.default_rng(0)
    with ResultsStore(store_root) as store:
        for kind, scale in (("baseline", baseline_s), ("current", current_s)):
            for rep in range(reps):
                store.insert(TrialRecord(
                    experiment=f"{kind}_{workload}", workload=workload,
                    config_hash="cafe", seed=7, rep=rep,
                    host=baseline_host if kind == "baseline" else "h1",
                    phase="steady",
                    git_hash="baserev" if kind == "baseline" else "headrev",
                    is_baseline=kind == "baseline",
                    wall_seconds=scale * (1 + rng.uniform(-0.01, 0.01)),
                    created_utc=time.time() + (0 if kind == "baseline" else 100) + rep,
                ))


class TestCLI:
    def test_run_then_gate_green(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        save_suite([TINY], suite)
        store = tmp_path / "store"
        base = ["bench", "run", "--suite", str(suite), "--store", str(store)]
        assert main(base + ["--as-baseline"]) == 0
        assert main(base) == 0
        assert main(["bench", "gate", "--store", str(store),
                     "--require-evaluated"]) == 0
        out = capsys.readouterr().out
        assert "gate: PASS" in out

    def test_gate_fails_on_planted_regression(self, tmp_path, capsys):
        store = tmp_path / "store"
        _plant(store, "count_only_mapping", baseline_s=1e-3, current_s=1.5e-3)
        assert main(["bench", "gate", "--store", str(store)]) == 1
        out = capsys.readouterr().out
        assert "gate: FAIL" in out and "REGRESSED" in out

    def test_gate_threshold_flag_loosens_the_bar(self, tmp_path):
        store = tmp_path / "store"
        _plant(store, "count_only_mapping", baseline_s=1e-3, current_s=1.5e-3)
        assert main(["bench", "gate", "--store", str(store),
                     "--threshold", "1.0"]) == 0

    def test_gate_require_evaluated_guards_empty_stores(self, tmp_path):
        store = tmp_path / "store"
        ResultsStore(store).close()
        assert main(["bench", "gate", "--store", str(store)]) == 0
        assert main(["bench", "gate", "--store", str(store),
                     "--require-evaluated"]) == 2

    def test_gate_skips_other_host_baseline(self, tmp_path, capsys):
        # A much-slower current run whose only baseline came from another
        # host: nothing is evaluated, so the gate passes, and
        # --require-evaluated turns the coverage gap into exit 2.
        store = tmp_path / "store"
        _plant(store, "flat_open", baseline_s=1e-3, current_s=2e-3,
               baseline_host="h2")
        assert main(["bench", "gate", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "flat-container-open: SKIPPED (no same-host baseline)" in out
        assert "gate: PASS" in out
        assert main(["bench", "gate", "--store", str(store),
                     "--require-evaluated"]) == 2

    def test_run_rejects_zero_reps(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["bench", "run", "--suite", "tiny", "--reps", "0",
                     "--store", str(store)]) == 2
        assert "error: repetitions must be >= 1" in capsys.readouterr().err
        assert not list(store.glob("trials/*.json"))

    def test_report_renders_html(self, tmp_path):
        store = tmp_path / "store"
        _plant(store, "flat_open", baseline_s=1e-3, current_s=1.0e-3)
        out = tmp_path / "report.html"
        assert main(["bench", "report", "--store", str(store),
                     "-o", str(out)]) == 0
        html = out.read_text()
        assert "flat_open" in html and "<svg" in html

    def test_report_empty_store_exits_2(self, tmp_path):
        store = tmp_path / "store"
        ResultsStore(store).close()
        assert main(["bench", "report", "--store", str(store),
                     "-o", str(tmp_path / "r.html")]) == 2
