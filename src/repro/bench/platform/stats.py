"""Statistics for perf comparisons: bootstrap CIs and rank tests.

Wall-clock samples are small (5-10 reps) and non-normal (long right
tail from scheduler noise), so everything here is nonparametric:

* :func:`bootstrap_ci` — percentile bootstrap of a statistic (median by
  default), deterministic in its seed;
* :func:`mann_whitney_u` — one-sided Mann-Whitney U, ``scipy.stats``
  when available with a stdlib normal-approximation fallback, so the
  gate works even in a stripped environment;
* :func:`compare` — the gate's decision rule: a *regression* requires
  **both** a median ratio beyond the threshold **and** a significant
  rank test.  Either alone is noise: a large ratio with p ≥ α is a
  flaky sample, a tiny-but-significant ratio is below the bar we care
  about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
    stat: Callable[[np.ndarray], float] = np.median,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval of ``stat`` over ``samples``."""
    xs = np.asarray(list(samples), dtype=float)
    if xs.size == 0:
        raise ValueError("bootstrap_ci needs at least one sample")
    if xs.size == 1:
        return float(xs[0]), float(xs[0])
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, xs.size, size=(n_boot, xs.size))
    stats = np.apply_along_axis(stat, 1, xs[idx])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def _mann_whitney_normal_approx(a: np.ndarray, b: np.ndarray) -> float:
    """One-sided p for H1 "b > a" via the tie-corrected normal approximation."""
    n1, n2 = a.size, b.size
    pooled = np.concatenate([a, b])
    order = pooled.argsort(kind="mergesort")
    ranks = np.empty(pooled.size, dtype=float)
    ranks[order] = np.arange(1, pooled.size + 1)
    # Average ranks over ties.
    for v in np.unique(pooled):
        mask = pooled == v
        if mask.sum() > 1:
            ranks[mask] = ranks[mask].mean()
    r2 = ranks[n1:].sum()
    u2 = r2 - n2 * (n2 + 1) / 2.0  # U statistic of sample b
    mu = n1 * n2 / 2.0
    # Tie correction to the variance.
    n = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = ((counts**3 - counts).sum()) / (n * (n - 1)) if n > 1 else 0.0
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return 1.0 if u2 <= mu else 0.0
    z = (u2 - mu - 0.5) / math.sqrt(sigma2)  # continuity-corrected
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(
    baseline: Sequence[float], current: Sequence[float]
) -> float:
    """One-sided p-value that ``current`` is stochastically greater.

    Small p ⇒ the current samples are larger (slower, for wall clock)
    than the baseline beyond what chance explains.
    """
    a = np.asarray(list(baseline), dtype=float)
    b = np.asarray(list(current), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("mann_whitney_u needs samples on both sides")
    try:
        from scipy.stats import mannwhitneyu

        return float(mannwhitneyu(b, a, alternative="greater").pvalue)
    except ImportError:  # pragma: no cover - scipy present in this image
        return _mann_whitney_normal_approx(a, b)


def min_p_value(n_baseline: int, n_current: int) -> float:
    """The smallest one-sided Mann-Whitney p that samples of these sizes
    can give: ``1 / C(n1 + n2, n1)``, reached when every current sample
    exceeds every baseline one (0.05 at 3/3, 1/252 at 5/5)."""
    return 1.0 / math.comb(n_baseline + n_current, n_baseline)


@dataclass(frozen=True)
class Comparison:
    """Outcome of one baseline-vs-current comparison."""

    baseline_median: float
    current_median: float
    ratio: float  # current / baseline; > 1 means slower
    p_value: float
    threshold: float
    alpha: float
    baseline_n: int
    current_n: int
    current_ci: tuple[float, float]

    @property
    def beyond_threshold(self) -> bool:
        return self.ratio > 1.0 + self.threshold

    @property
    def significant(self) -> bool:
        return self.p_value < self.alpha

    @property
    def regressed(self) -> bool:
        return self.beyond_threshold and self.significant

    @property
    def improved(self) -> bool:
        return self.ratio < 1.0 - self.threshold

    def describe(self) -> str:
        verdict = (
            "REGRESSED" if self.regressed
            else "improved" if self.improved
            else "ok"
        )
        return (
            f"{verdict}: median {self.current_median * 1e3:.3f} ms vs "
            f"baseline {self.baseline_median * 1e3:.3f} ms "
            f"({self.ratio:.3f}x, threshold {1 + self.threshold:.2f}x, "
            f"p={self.p_value:.2g}, n={self.baseline_n}/{self.current_n})"
        )


def compare(
    baseline: Sequence[float],
    current: Sequence[float],
    threshold: float = 0.25,
    alpha: float = 0.01,
    seed: int = 0,
) -> Comparison:
    """Decide whether ``current`` regressed against ``baseline``.

    ``threshold`` is fractional (0.25 ⇒ flag > 25% slower); ``alpha`` is
    the significance level for the one-sided rank test.
    """
    a = np.asarray(list(baseline), dtype=float)
    b = np.asarray(list(current), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("compare needs samples on both sides")
    ratio = float(np.median(b) / np.median(a)) if np.median(a) > 0 else math.inf
    return Comparison(
        baseline_median=float(np.median(a)),
        current_median=float(np.median(b)),
        ratio=ratio,
        p_value=mann_whitney_u(a, b),
        threshold=threshold,
        alpha=alpha,
        baseline_n=int(a.size),
        current_n=int(b.size),
        current_ci=bootstrap_ci(b, seed=seed),
    )
