"""CI regression gate over the named hot paths.

A *hot path* is a workload whose speed the project has publicly claimed
(README/EXPERIMENTS numbers) and therefore defends: the gate compares
the most recent non-baseline run of each against the stored baseline
and exits non-zero on a statistically significant slowdown beyond the
path's threshold (see :func:`repro.bench.platform.stats.compare` for
the two-part decision rule).

A baseline counts only when it was measured on the host that produced
the current samples: wall clock from a different machine is not
evidence of a code regression, so such a path is skipped, never failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .stats import Comparison, compare
from .store import ResultsStore


@dataclass(frozen=True)
class HotPath:
    """One gated workload: metric watched and regression threshold."""

    name: str
    workload: str
    metric: str = "wall_seconds"
    #: Fractional slowdown bar (0.25 ⇒ fail when > 25% slower with
    #: significance).  Sized to each path's historical run-to-run noise.
    threshold: float = 0.25


#: The registry the gate walks.  Order is report order.
HOT_PATHS: tuple[HotPath, ...] = (
    HotPath("count-only-mapping", "count_only_mapping", threshold=0.25),
    HotPath("flat-container-open", "flat_open", threshold=0.50),
    HotPath("pool-attach", "pool_attach", threshold=0.50),
    HotPath("occ2-fused-kernel", "occ2_fused", threshold=0.25),
    # The coalesced path merges many small dispatches into one timed
    # region, so its run-to-run noise sits between the micro kernels and
    # the container-open paths.
    HotPath("coalesced-mapping", "coalesced_mapping", threshold=0.30),
    # Scatter-gather adds thread fan-out and hit merging on top of the
    # mapper kernels; its noise floor matches the coalesced path's.
    HotPath("sharded-mapping", "sharded_mapping", threshold=0.35),
    # Whole-pipeline out-of-core build: seconds per cold blockwise build
    # of the scaled chr21 profile.  Few reps (builds are long), so the
    # bar sits at the wide end.
    HotPath("blockwise-build", "blockwise_build", threshold=0.35),
)


@dataclass
class PathVerdict:
    """Gate outcome for one hot path."""

    path: HotPath
    comparison: Comparison | None
    skipped_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.comparison is not None and self.comparison.regressed

    def describe(self) -> str:
        if self.comparison is None:
            return f"{self.path.name}: SKIPPED ({self.skipped_reason})"
        return f"{self.path.name}: {self.comparison.describe()}"


@dataclass
class GateReport:
    """All verdicts from one gate evaluation."""

    verdicts: list[PathVerdict] = field(default_factory=list)
    git_hash: str | None = None

    @property
    def ok(self) -> bool:
        return not any(v.failed for v in self.verdicts)

    @property
    def evaluated(self) -> int:
        return sum(1 for v in self.verdicts if v.comparison is not None)

    def summary_lines(self) -> list[str]:
        lines = [
            f"bench gate @ {self.git_hash or 'unknown'}: "
            f"{self.evaluated}/{len(self.verdicts)} hot paths evaluated"
        ]
        lines += ["  " + v.describe() for v in self.verdicts]
        lines.append("gate: " + ("PASS" if self.ok else "FAIL"))
        return lines


def run_gate(
    store: ResultsStore,
    git_hash: str | None = None,
    host: str | None = None,
    threshold_override: float | None = None,
    alpha: float = 0.01,
    paths: tuple[HotPath, ...] = HOT_PATHS,
) -> GateReport:
    """Evaluate every registered hot path at ``git_hash`` against baseline.

    ``git_hash`` defaults to the most recent non-baseline run in the
    store; ``host`` defaults to the one host that produced its samples.
    Paths without current samples or without a same-host baseline are
    reported as skipped, never failed — an absent measurement is a
    coverage gap, not a regression.
    """
    if git_hash is None:
        git_hash = store.latest_git_hash()
    report = GateReport(git_hash=git_hash)
    for path in paths:
        threshold = (
            threshold_override if threshold_override is not None else path.threshold
        )
        current = store.samples(
            path.workload, metric=path.metric, git_hash=git_hash,
            host=host, is_baseline=False,
        ) if git_hash else []
        if not current:
            report.verdicts.append(
                PathVerdict(path, None, skipped_reason="no current samples")
            )
            continue
        current_hosts = {
            r.host for r in store.query(
                workload=path.workload, phase="steady", git_hash=git_hash,
                host=host, is_baseline=False,
            )
        }
        # Current samples from several hosts have no one host to match.
        baseline = store.samples(
            path.workload, metric=path.metric, is_baseline=True,
            host=current_hosts.pop(),
        ) if len(current_hosts) == 1 else []
        if not baseline:
            report.verdicts.append(
                PathVerdict(path, None, skipped_reason="no same-host baseline")
            )
            continue
        report.verdicts.append(
            PathVerdict(
                path, compare(baseline, current, threshold=threshold, alpha=alpha)
            )
        )
    return report
