"""Continuous-benchmarking platform: declarative experiments, a
provenance-keyed results store, statistics, reports, and CI gates.

The pieces (DESIGN.md §11):

* :mod:`configs` — experiments as data (workload × backend × scale ×
  repetitions), stably hashable;
* :mod:`workloads` — the registered measurable kernels, including every
  named hot path the gate defends;
* :mod:`runner` — the dispatcher that executes trials (optionally
  through the shared-memory MapperPool) with warmup separation and
  per-trial telemetry snapshots;
* :mod:`store` — JSON trial documents + a SQLite trajectory DB, keyed
  by git hash, config hash, seed, and host fingerprint — the
  platform's one machine-readable record;
* :mod:`stats` — bootstrap CIs and rank tests behind every verdict;
* :mod:`gate` — the named-hot-path regression gate (non-zero exit on a
  significant slowdown past a path's threshold, against a baseline
  from the same host only);
* :mod:`report` — fuzzbench-style lazily-computed report context
  rendered to a self-contained HTML file.
"""

from .configs import (
    BUILTIN_SUITES,
    ConfigError,
    ExperimentConfig,
    load_suite,
    resolve_suite,
    save_suite,
)
from .gate import HOT_PATHS, GateReport, HotPath, PathVerdict, run_gate
from .report import ReportContext, render_html, write_report
from .runner import RunReport, run_experiments
from .stats import Comparison, bootstrap_ci, compare, mann_whitney_u
from .store import ResultsStore, TrialRecord, git_revision, host_fingerprint
from .workloads import WORKLOADS, Workload, create_workload

__all__ = [
    "BUILTIN_SUITES",
    "HOT_PATHS",
    "WORKLOADS",
    "Comparison",
    "ConfigError",
    "ExperimentConfig",
    "GateReport",
    "HotPath",
    "PathVerdict",
    "ReportContext",
    "ResultsStore",
    "RunReport",
    "TrialRecord",
    "Workload",
    "bootstrap_ci",
    "compare",
    "create_workload",
    "git_revision",
    "host_fingerprint",
    "load_suite",
    "mann_whitney_u",
    "render_html",
    "resolve_suite",
    "run_experiments",
    "run_gate",
    "save_suite",
    "write_report",
]
