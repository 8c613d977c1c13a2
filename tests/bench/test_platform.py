"""Unit tests for the continuous-benchmarking platform.

Covers config parsing and hash stability,
the results-store round-trip (provenance recorded, schema migration
from empty), significance decisions on synthetic known-effect samples,
and the gate verdicts — a planted 50% slowdown must fail, 1% jitter
must pass.  Everything here runs on fabricated trial records; the real
workloads get one tiny end-to-end pass in ``test_platform_runner.py``.
"""

import json
import sqlite3
import time

import numpy as np
import pytest

from repro.bench.platform import (
    BUILTIN_SUITES,
    HOT_PATHS,
    ConfigError,
    ExperimentConfig,
    GateReport,
    ResultsStore,
    TrialRecord,
    bootstrap_ci,
    compare,
    load_suite,
    mann_whitney_u,
    resolve_suite,
    run_gate,
    save_suite,
)
from repro.bench.platform.stats import min_p_value
from repro.bench.platform.store import SCHEMA_VERSION, git_revision, host_fingerprint

# --- configs ------------------------------------------------------------


class TestExperimentConfig:
    def test_roundtrip_through_dict(self):
        c = ExperimentConfig(
            name="x", workload="occ2_fused", scale="tiny", repetitions=3,
            params=(("k", 8), ("ratio", 0.5)),
        )
        assert ExperimentConfig.from_dict(c.to_dict()) == c

    def test_hash_is_stable_across_param_order(self):
        a = ExperimentConfig(name="x", workload="w").with_params(k=8, ratio=0.5)
        b = ExperimentConfig(name="x", workload="w").with_params(ratio=0.5, k=8)
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 12

    def test_hash_changes_with_any_field(self):
        base = ExperimentConfig(name="x", workload="w")
        assert base.config_hash() != ExperimentConfig(name="y", workload="w").config_hash()
        assert base.config_hash() != ExperimentConfig(name="x", workload="w", seed=8).config_hash()
        assert base.config_hash() != base.with_params(k=1).config_hash()

    def test_hash_is_stable_across_processes(self):
        # A literal regression canary: if this digest moves, every stored
        # trial's config_hash silently stops matching new runs.
        c = ExperimentConfig(name="x", workload="w")
        assert c.config_hash() == ExperimentConfig.from_dict(
            json.loads(json.dumps(c.to_dict()))
        ).config_hash()

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError, match="unknown scale"):
            ExperimentConfig(name="x", workload="w", scale="galactic")

    def test_bad_repetitions_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", workload="w", repetitions=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown experiment field"):
            ExperimentConfig.from_dict({"name": "x", "workload": "w", "wat": 1})

    def test_from_dict_requires_name_and_workload(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"name": "x"})


class TestSuites:
    def test_save_load_roundtrip(self, tmp_path):
        suite = BUILTIN_SUITES["tiny"]
        path = tmp_path / "suite.json"
        save_suite(suite, path)
        assert load_suite(path) == suite

    def test_load_rejects_duplicate_names(self, tmp_path):
        path = tmp_path / "dupes.json"
        path.write_text(json.dumps({"experiments": [
            {"name": "a", "workload": "w"}, {"name": "a", "workload": "w2"},
        ]}))
        with pytest.raises(ConfigError, match="duplicate"):
            load_suite(path)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_suite(path)

    def test_resolve_builtin_and_file_and_unknown(self, tmp_path):
        assert resolve_suite("smoke") == BUILTIN_SUITES["smoke"]
        path = tmp_path / "s.json"
        save_suite(BUILTIN_SUITES["tiny"], path)
        assert resolve_suite(str(path)) == BUILTIN_SUITES["tiny"]
        with pytest.raises(ConfigError, match="unknown suite"):
            resolve_suite("nope")

    def test_smoke_suite_covers_every_hot_path(self):
        workloads = {c.workload for c in BUILTIN_SUITES["smoke"]}
        for path in HOT_PATHS:
            assert path.workload in workloads, path.name


# --- store --------------------------------------------------------------


def _record(workload="w", wall=1.0, **kw):
    defaults = dict(
        experiment=f"exp_{workload}", workload=workload, config_hash="cafe",
        git_hash="deadbeef", seed=7, host="hostA", rep=0, phase="steady",
        wall_seconds=wall, created_utc=time.time(),
    )
    defaults.update(kw)
    return TrialRecord(**defaults)


class TestResultsStore:
    def test_round_trip_preserves_provenance(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            rec = _record(seed=42, git_hash="abc123", metrics={"ftab_hits_total": 9.0})
            store.insert(rec)
            (got,) = store.query(workload="w")
        assert got.git_hash == "abc123"
        assert got.seed == 42
        assert got.host == "hostA"
        assert got.config_hash == "cafe"
        assert got.metrics == {"ftab_hits_total": 9.0}
        assert got.wall_seconds == rec.wall_seconds

    def test_json_document_written_per_trial(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            rec = _record()
            store.insert(rec)
            doc = json.loads((store.trials_dir / f"{rec.id}.json").read_text())
        assert doc["git_hash"] == "deadbeef"
        assert doc["seed"] == 7

    def test_schema_migration_from_empty_db(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        # Pre-create an empty database file: open() must migrate it.
        sqlite3.connect(root / "trajectory.sqlite").close()
        with ResultsStore(root) as store:
            assert store.schema_version == SCHEMA_VERSION
            store.insert(_record())
            assert store.count() == 1

    def test_refuses_newer_schema(self, tmp_path):
        root = tmp_path / "store"
        with ResultsStore(root) as store:
            store._conn.execute(
                "UPDATE schema_version SET version = ?", (SCHEMA_VERSION + 1,)
            )
            store._conn.commit()
        with pytest.raises(RuntimeError, match="newer than this code"):
            ResultsStore(root)

    def test_rebuild_db_from_json(self, tmp_path):
        root = tmp_path / "store"
        with ResultsStore(root) as store:
            store.insert_many([_record(wall=1.0), _record(wall=2.0, rep=1)])
            store._conn.execute("DELETE FROM trials")
            store._conn.commit()
            assert store.count() == 0
            assert store.rebuild_db() == 2
            assert sorted(store.samples("w")) == [1.0, 2.0]

    def test_export_import_roundtrip(self, tmp_path):
        out = tmp_path / "export.json"
        with ResultsStore(tmp_path / "a") as store:
            store.insert(_record(is_baseline=True))
            store.insert(_record(rep=1))
            assert store.export_records(out, is_baseline=True) == 1
        with ResultsStore(tmp_path / "b") as other:
            assert other.import_records(out) == 1
            (got,) = other.query()
            assert got.is_baseline

    def test_old_documents_with_synthetic_flag_still_load(self, tmp_path):
        # Trial documents written while the store kept a ``synthetic``
        # column carry the flag; they must load and rebuild unchanged.
        doc = _record(wall=3.0).to_dict()
        doc["synthetic"] = False
        assert TrialRecord.from_dict(doc).wall_seconds == 3.0
        with ResultsStore(tmp_path / "store") as store:
            (store.trials_dir / f"{doc['id']}.json").write_text(json.dumps(doc))
            assert store.rebuild_db() == 1
            (got,) = store.query()
        assert got.id == doc["id"] and got.wall_seconds == 3.0

    def test_baseline_prefers_same_host(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            store.insert(_record(is_baseline=True, host="hostA", wall=1.0))
            store.insert(_record(is_baseline=True, host="hostB", wall=5.0, rep=1))
            assert store.samples("w", host="hostA", is_baseline=True) == [1.0]
            assert store.samples("w", host="hostB", is_baseline=True) == [5.0]
            # An unknown host has no baseline: there is no any-host fallback.
            assert store.samples("w", host="hostC", is_baseline=True) == []
            # The gate compares hostB's current samples with hostB's own
            # baseline; against hostA's they would read as a 5x slowdown.
            _fill_store(store, "flat_open", baseline_s=1e-3, current_s=1e-3,
                        host="hostA")
            _fill_store(store, "flat_open", baseline_s=5e-3, current_s=5e-3,
                        host="hostB", git_hash="beefcafe", seed=1)
            report = run_gate(store, git_hash="beefcafe", host="hostB")
        (v,) = [v for v in report.verdicts if v.path.workload == "flat_open"]
        assert v.comparison is not None and not v.failed
        assert v.comparison.baseline_n == 10
        assert v.comparison.baseline_median == pytest.approx(5e-3, rel=0.02)
        assert report.ok

    def test_samples_filters_phase_and_metric(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            store.insert(_record(phase="warmup", wall=9.0))
            store.insert(_record(wall=1.0, metrics={"reads": 400}))
            assert store.samples("w") == [1.0]
            assert store.samples("w", metric="reads") == [400.0]

    def test_latest_git_hash_skips_baselines(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            store.insert(_record(git_hash="old", created_utc=1.0))
            store.insert(_record(git_hash="base", created_utc=9.0,
                                 is_baseline=True, rep=1))
            store.insert(_record(git_hash="new", created_utc=2.0, rep=2))
            assert store.latest_git_hash() == "new"
            assert store.git_hashes() == ["old", "new", "base"]

    def test_provenance_helpers(self):
        assert len(host_fingerprint()) == 12
        rev = git_revision("/root/repo")
        assert rev == "unknown" or len(rev) == 40


# --- stats --------------------------------------------------------------


class TestStats:
    def test_bootstrap_ci_deterministic_and_contains_median(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(10.0, 0.5, size=30)
        lo, hi = bootstrap_ci(xs, seed=1)
        assert lo <= np.median(xs) <= hi
        assert (lo, hi) == bootstrap_ci(xs, seed=1)
        assert (lo, hi) != bootstrap_ci(xs, seed=2)

    def test_bootstrap_ci_edge_cases(self):
        assert bootstrap_ci([3.0]) == (3.0, 3.0)
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_mann_whitney_detects_known_effect(self):
        rng = np.random.default_rng(3)
        base = rng.normal(1.0, 0.02, size=20)
        slow = rng.normal(1.5, 0.02, size=20)
        assert mann_whitney_u(base, slow) < 1e-4
        # No effect: same distribution stays non-significant.
        assert mann_whitney_u(base, rng.normal(1.0, 0.02, size=20)) > 0.05
        # Wrong direction (improvement) is never "significantly slower".
        assert mann_whitney_u(slow, base) > 0.5

    def test_scipy_and_fallback_agree(self):
        from repro.bench.platform.stats import _mann_whitney_normal_approx

        rng = np.random.default_rng(4)
        a = rng.normal(1.0, 0.05, size=12)
        b = rng.normal(1.2, 0.05, size=12)
        p_scipy = mann_whitney_u(a, b)
        p_approx = _mann_whitney_normal_approx(a, b)
        assert p_scipy < 0.01 and p_approx < 0.01

    def test_compare_planted_regression(self):
        rng = np.random.default_rng(5)
        base = 1.0 * (1 + rng.uniform(-0.01, 0.01, size=10))
        slow = 1.5 * (1 + rng.uniform(-0.01, 0.01, size=10))
        cmp = compare(base, slow, threshold=0.25, alpha=0.01)
        assert cmp.regressed
        assert cmp.beyond_threshold and cmp.significant
        assert 1.4 < cmp.ratio < 1.6
        assert "REGRESSED" in cmp.describe()

    def test_compare_jitter_passes(self):
        rng = np.random.default_rng(6)
        base = 1.0 * (1 + rng.uniform(-0.01, 0.01, size=10))
        near = 1.01 * (1 + rng.uniform(-0.01, 0.01, size=10))
        cmp = compare(base, near, threshold=0.25, alpha=0.01)
        # 1% drift may or may not be "significant", but it is inside the
        # threshold — the two-part rule keeps the verdict green.
        assert not cmp.beyond_threshold
        assert not cmp.regressed

    def test_compare_significant_but_small_is_not_regression(self):
        # Clearly significant (zero-variance separation) but only 5% slow:
        # the ratio arm of the rule holds the line.
        base = [1.00, 1.001, 1.002, 1.003, 1.004, 1.005, 1.006, 1.007]
        slow = [round(1.05 + i * 1e-3, 6) for i in range(8)]
        cmp = compare(base, slow, threshold=0.25, alpha=0.01)
        assert cmp.significant and not cmp.beyond_threshold
        assert not cmp.regressed

    def test_compare_large_ratio_without_significance_is_not_regression(self):
        # One wild outlier drags the ratio but cannot reach significance.
        base = [1.0, 1.0, 1.0]
        cmp = compare(base, [4.0], threshold=0.25, alpha=0.01)
        assert cmp.beyond_threshold and not cmp.significant
        assert not cmp.regressed

    def test_compare_detects_improvement(self):
        cmp = compare([2.0] * 8, [1.0] * 8, threshold=0.25)
        assert cmp.improved and not cmp.regressed


# --- gate ---------------------------------------------------------------


def _fill_store(store, workload, *, baseline_s, current_s, host="hostA",
                git_hash="feedface", reps=10, jitter=0.01, seed=0):
    """Plant a baseline population and a current population."""
    rng = np.random.default_rng(seed)
    for rep in range(reps):
        store.insert(_record(
            workload=workload, host=host, git_hash="baserev", rep=rep,
            is_baseline=True,
            wall=baseline_s * (1 + rng.uniform(-jitter, jitter)),
            created_utc=1000.0 + rep,
        ))
    for rep in range(reps):
        store.insert(_record(
            workload=workload, host=host, git_hash=git_hash, rep=rep,
            wall=current_s * (1 + rng.uniform(-jitter, jitter)),
            created_utc=2000.0 + rep,
        ))


class TestGate:
    def test_planted_50pct_slowdown_fails(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            for path in HOT_PATHS:
                slow = path.workload == "count_only_mapping"
                _fill_store(store, path.workload, baseline_s=1e-3,
                            current_s=1.5e-3 if slow else 1e-3)
            report = run_gate(store)
        assert isinstance(report, GateReport)
        assert report.evaluated == len(HOT_PATHS)
        assert not report.ok
        failed = [v.path.workload for v in report.verdicts if v.failed]
        assert failed == ["count_only_mapping"]
        assert report.summary_lines()[-1] == "gate: FAIL"

    def test_one_percent_jitter_passes(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            for i, path in enumerate(HOT_PATHS):
                _fill_store(store, path.workload, baseline_s=1e-3,
                            current_s=1.01e-3, seed=i)
            report = run_gate(store)
        assert report.evaluated == len(HOT_PATHS)
        assert report.ok
        assert report.summary_lines()[-1] == "gate: PASS"

    def test_missing_paths_skip_but_never_fail(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            _fill_store(store, "flat_open", baseline_s=1e-3, current_s=1e-3)
            # occ2_fused: current samples but no baseline at all.
            store.insert(_record(workload="occ2_fused", git_hash="feedface",
                                 created_utc=2050.0))
            report = run_gate(store)
        assert report.ok
        by_name = {v.path.workload: v for v in report.verdicts}
        assert by_name["count_only_mapping"].skipped_reason == "no current samples"
        assert by_name["occ2_fused"].skipped_reason == "no same-host baseline"
        assert by_name["flat_open"].comparison is not None

    def test_other_host_baseline_is_skipped_same_host_fails(self, tmp_path):
        # A planted 50% slowdown is only evidence against a baseline from
        # the same machine: across hosts the path is skipped, not failed.
        for baseline_host, expect_fail in (("otherhost", False), ("realhost", True)):
            with ResultsStore(tmp_path / baseline_host) as store:
                rng = np.random.default_rng(0)
                for rep in range(10):
                    store.insert(_record(
                        workload="count_only_mapping", host=baseline_host,
                        git_hash="baserev", rep=rep, is_baseline=True,
                        wall=1e-3 * (1 + rng.uniform(-0.01, 0.01)),
                        created_utc=1000.0 + rep,
                    ))
                    store.insert(_record(
                        workload="count_only_mapping", host="realhost",
                        git_hash="feedface", rep=rep,
                        wall=1.5e-3 * (1 + rng.uniform(-0.01, 0.01)),
                        created_utc=2000.0 + rep,
                    ))
                report = run_gate(store)
            (v,) = [v for v in report.verdicts if v.path.workload == "count_only_mapping"]
            if expect_fail:
                assert v.comparison is not None and v.failed
                assert not report.ok
            else:
                assert v.comparison is None and not v.failed
                assert v.skipped_reason == "no same-host baseline"
                assert report.ok and report.evaluated == 0

    def test_verdicts_are_keyed_by_config(self, tmp_path):
        # One workload at two scales, same commit and host: a small-scale
        # run is ~3x a tiny-scale run by size alone, never a regression.
        def plant(store, config_hash, wall, *, baseline, seed):
            rng = np.random.default_rng(seed)
            for rep in range(10):
                store.insert(_record(
                    workload="blockwise_build", config_hash=config_hash,
                    host="hostA", git_hash="baserev" if baseline else "feedface",
                    is_baseline=baseline, rep=rep,
                    wall=wall * (1 + rng.uniform(-0.01, 0.01)),
                    created_utc=(1000.0 if baseline else 2000.0) + rep,
                ))

        with ResultsStore(tmp_path / "store") as store:
            plant(store, "tiny", 1.0, baseline=True, seed=0)
            plant(store, "tiny", 1.0, baseline=False, seed=1)
            plant(store, "small", 3.2, baseline=False, seed=2)
            assert len(store.samples("blockwise_build", config_hash="small")) == 10
            report = run_gate(store)
            verdicts = {v.config_hash: v for v in report.verdicts
                        if v.path.workload == "blockwise_build"}
            assert report.ok and report.evaluated == 1
            assert verdicts["tiny"].comparison is not None
            assert verdicts["small"].skipped_reason == "no same-host baseline"
            assert "[config small]" in verdicts["small"].describe()
            # With its own baseline each scale is judged on its own: a
            # planted 50% slowdown at one scale fails that verdict only.
            plant(store, "small", 3.2 / 1.5, baseline=True, seed=3)
            report = run_gate(store)
        failed = [v.config_hash for v in report.verdicts if v.failed]
        assert failed == ["small"] and not report.ok

    def test_threshold_override_widens_the_bar(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            _fill_store(store, "flat_open", baseline_s=1e-3, current_s=1.6e-3)
            assert not run_gate(store).ok
            assert run_gate(store, threshold_override=1.0).ok

    def test_planted_10x_slowdown_at_5_reps_fails(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            _fill_store(store, "blockwise_build", baseline_s=1.0, current_s=10.0, reps=5)
            report = run_gate(store)
        (v,) = [v for v in report.verdicts if v.comparison is not None]
        assert v.failed and v.comparison.p_value < 0.01
        assert (v.comparison.baseline_n, v.comparison.current_n) == (5, 5)
        assert not report.ok and report.summary_lines()[-1] == "gate: FAIL"

    def test_3_reps_are_refused_not_passed(self, tmp_path):
        # At 3/3 the smallest one-sided p is 0.05 > alpha: a 10x slowdown
        # could never fail, so the comparison is refused outright.
        with ResultsStore(tmp_path / "store") as store:
            _fill_store(store, "blockwise_build", baseline_s=1.0, current_s=10.0, reps=3)
            report = run_gate(store)
        (v,) = report.refused
        assert v.path.workload == "blockwise_build" and v.comparison is None
        assert "blockwise-build: REFUSED (n=3/3 cannot reach alpha=0.01" in v.describe()
        assert report.evaluated == 0 and not report.ok
        assert report.summary_lines()[-1] == "gate: REFUSED"

    def test_min_p_value_is_the_exact_rank_test_floor(self):
        assert min_p_value(3, 3) == pytest.approx(0.05)
        assert min_p_value(5, 5) == pytest.approx(1 / 252)
        assert mann_whitney_u([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]) == pytest.approx(1 / 252)

    @pytest.mark.parametrize("suite", sorted(BUILTIN_SUITES))
    def test_builtin_suites_can_reach_alpha(self, suite):
        for config in BUILTIN_SUITES[suite]:
            assert min_p_value(config.repetitions, config.repetitions) < 0.01, config.name

    def test_empty_store_evaluates_nothing(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            report = run_gate(store)
        assert report.ok and report.evaluated == 0
