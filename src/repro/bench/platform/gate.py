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
Likewise a baseline counts only for the configuration (``config_hash``)
it was measured at: one workload at two scales is two measurements, so
each (workload, ``config_hash``) pair gets its own verdict.

A comparison whose sample sizes cannot reach ``alpha`` even when every
current sample is slower than every baseline one (3/3 reps: p >= 0.05)
could never fail, so the gate refuses it rather than pass it: the
verdict is ``REFUSED`` and names the path and its n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .stats import Comparison, compare, min_p_value
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
    #: Configuration the samples were measured at (None: none were).
    config_hash: str | None = None
    #: Why the samples cannot decide (None: they can).
    refused_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.comparison is not None and self.comparison.regressed

    def describe(self) -> str:
        if self.refused_reason is not None:
            text = f"{self.path.name}: REFUSED ({self.refused_reason})"
        elif self.comparison is None:
            text = f"{self.path.name}: SKIPPED ({self.skipped_reason})"
        else:
            text = f"{self.path.name}: {self.comparison.describe()}"
        if self.config_hash is not None:
            text += f" [config {self.config_hash}]"
        return text


@dataclass
class GateReport:
    """All verdicts from one gate evaluation."""

    verdicts: list[PathVerdict] = field(default_factory=list)
    git_hash: str | None = None

    @property
    def ok(self) -> bool:
        return not any(v.failed for v in self.verdicts) and not self.refused

    @property
    def refused(self) -> list[PathVerdict]:
        return [v for v in self.verdicts if v.refused_reason is not None]

    @property
    def evaluated(self) -> int:
        return sum(1 for v in self.verdicts if v.comparison is not None)

    def summary_lines(self) -> list[str]:
        lines = [
            f"bench gate @ {self.git_hash or 'unknown'}: "
            f"{self.evaluated}/{len(self.verdicts)} verdicts evaluated"
        ]
        lines += ["  " + v.describe() for v in self.verdicts]
        failed = any(v.failed for v in self.verdicts)
        lines.append("gate: " + ("FAIL" if failed else "REFUSED" if self.refused else "PASS"))
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
        records = store.query(
            workload=path.workload, phase="steady", git_hash=git_hash,
            host=host, is_baseline=False,
        ) if git_hash else []
        configs = list(dict.fromkeys(r.config_hash for r in records))
        if not configs:
            report.verdicts.append(
                PathVerdict(path, None, skipped_reason="no current samples")
            )
        for config_hash in configs:
            report.verdicts.append(_verdict(
                store, path, [r for r in records if r.config_hash == config_hash],
                host, threshold=threshold, alpha=alpha,
            ))
    return report


def _verdict(store, path, records, host, *, threshold, alpha) -> PathVerdict:
    """Compare one configuration's current trials with its own baseline."""
    config_hash = records[0].config_hash
    current = store.samples(
        path.workload, metric=path.metric, git_hash=records[0].git_hash,
        host=host, is_baseline=False, config_hash=config_hash,
    )
    if not current:
        return PathVerdict(path, None, "no current samples", config_hash)
    hosts = {r.host for r in records}
    # Current samples from several hosts have no one host to match.
    baseline = store.samples(
        path.workload, metric=path.metric, is_baseline=True,
        host=hosts.pop(), config_hash=config_hash,
    ) if len(hosts) == 1 else []
    if not baseline:
        return PathVerdict(path, None, "no same-host baseline", config_hash)
    floor = min_p_value(len(baseline), len(current))
    if floor >= alpha:
        return PathVerdict(path, None, config_hash=config_hash, refused_reason=(
            f"n={len(baseline)}/{len(current)} cannot reach alpha={alpha:g}: "
            f"its smallest one-sided p is {floor:.3g}"
        ))
    return PathVerdict(
        path, compare(baseline, current, threshold=threshold, alpha=alpha),
        config_hash=config_hash,
    )
