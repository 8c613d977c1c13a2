"""Order statistics shared by the workloads, the layer table and the A/A tool."""

from __future__ import annotations

import statistics
import time


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def percentile(xs, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def quartile_spread(xs) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(xs, n=4)`` gives the quartiles."""
    xs = list(xs)
    if len(xs) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def host_calibration_ms() -> float:
    """A fixed pure-Python plus numpy loop; it does not depend on the
    program, so its drift between runs is the host's."""
    import numpy as np

    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        a = np.arange(200_000, dtype=np.int64)
        for _ in range(10):
            a = (a * 3 + 1) % 1_000_003
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)
