"""Calibrated thread-scaling model for the CPU baselines.

The paper runs Bowtie2 with 1, 8 and 16 threads on a Xeon E5-2698 v3.
CPython threads cannot reproduce that scaling (the GIL serializes the
search), and multiprocessing measurement — provided by
:meth:`repro.serving.pool.MapperPool.run_batch` — is only meaningful
at small read counts.  For the paper-scale table rows we therefore model
thread scaling with Amdahl's law,

.. math::  T(p) = T_1 \\left( s + \\frac{1 - s}{p} \\right),

with the serial fraction ``s`` fitted to the paper's own measured
Bowtie2 rows: Table I gives speedups of 7.68× at 8 threads and 15.31× at
16 threads (176 683 / 23 016 / 11 542 ms), which Amdahl fits with
``s ≈ 0.003`` — i.e. Bowtie2's exact-match mapping is embarrassingly
parallel, as expected for independent reads.  The same ``s`` is applied
to our own software implementation when a multi-thread column is asked
of it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Serial fraction fitted to the paper's Bowtie2 1/8/16-thread times.
PAPER_FITTED_SERIAL_FRACTION = 0.003


@dataclass(frozen=True)
class AmdahlModel:
    """Thread-scaling law with a fixed serial fraction."""

    serial_fraction: float = PAPER_FITTED_SERIAL_FRACTION

    def __post_init__(self):
        if not 0.0 <= self.serial_fraction < 1.0:
            raise ValueError("serial fraction must lie in [0, 1)")

    def speedup(self, threads: int) -> float:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        s = self.serial_fraction
        return 1.0 / (s + (1.0 - s) / threads)

    def seconds(self, single_thread_seconds: float, threads: int) -> float:
        return single_thread_seconds / self.speedup(threads)

    def fit_serial_fraction(self, threads: int, measured_speedup: float) -> float:
        """Invert Amdahl for one (threads, speedup) observation."""
        if threads < 2:
            raise ValueError("need >= 2 threads to identify the serial fraction")
        if measured_speedup <= 0:
            raise ValueError("speedup must be positive")
        p = threads
        # 1/S = s + (1-s)/p  =>  s = (1/S - 1/p) / (1 - 1/p)
        s = (1.0 / measured_speedup - 1.0 / p) / (1.0 - 1.0 / p)
        return max(0.0, s)


DEFAULT_THREAD_MODEL = AmdahlModel()
