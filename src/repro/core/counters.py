"""Operation-count instrumentation shared by every query structure.

BWaveR's evaluation compares a hardware pipeline against software baselines.
Because this reproduction executes the data structures in pure Python, wall
clock alone cannot reproduce the paper's ratios (Python is two to three
orders of magnitude slower than the authors' C++/HLS code).  Instead, the
structures in :mod:`repro.core` count the primitive operations they
perform, and the analytic cost models in :mod:`repro.fpga.cost_model` and
:mod:`repro.bench.calibration` convert those counts into native-equivalent
or FPGA-cycle time.  The *workload behaviour* (early termination of
unmapped reads, number of class-sum iterations per rank, wavelet-tree
depth) is therefore real and measured; only per-operation costs are model
constants.

Counts belong to a run, not to a structure.  :class:`CounterScope` opens
a fresh :class:`OpCounters` for the current thread or context; every
structure charges whatever scope is innermost there, and an inner scope's
counts fold into the enclosing one when it closes.  Outside any scope
nothing is charged: scalar paths bump the read-only :data:`UNCOUNTED`
sink, and the vectorized kernels skip computing their charges.  A thread
starts outside every scope, so concurrent work on other threads never
leaks into a run's counts.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, fields


@dataclass
class OpCounters:
    """Tally of primitive operations executed by the succinct structures.

    Attributes
    ----------
    binary_ranks:
        Number of binary (single bit-vector) rank queries answered.  Each
        wavelet-tree rank issues ``log2(sigma)`` of these.
    class_sum_iterations:
        Total iterations of the RRR class-summation loop (Algorithm 1's
        ``for`` loops).  Bounded by ``sf`` per binary rank; this is the
        quantity the superblock factor trades against space.
    table_lookups:
        Global Rank Table (permutation array) reads.
    superblock_reads:
        Partial-sum / offset-sum array reads.
    offset_reads:
        Variable-width reads from the offset bit-vector.
    wt_ranks:
        Wavelet-tree (symbol) rank queries.
    bs_steps:
        Backward-search steps executed (one per consumed query symbol).
        Queries jump-started from the k-mer seed table skip their first
        ``k`` steps, so with an ftab attached this counts only the steps
        actually run — the reduced workload the FPGA cycle model consumes.
    ftab_lookups:
        K-mer seed-table reads (one per query of length >= k when an
        ftab is attached); the FPGA model charges one BRAM LUT burst
        read per lookup.
    queries:
        Query sequences processed (a read and its reverse complement count
        as two).
    reads_invalid:
        Reads rejected by the alphabet policy (``N``/IUPAC/garbage
        characters) and reported unmapped instead of searched.
    occ_checkpoint_ranks:
        Rank queries answered by the checkpointed Occ-table baseline.
    occ_scan_chars:
        BWT characters scanned between checkpoints by that baseline.
    """

    binary_ranks: int = 0
    class_sum_iterations: int = 0
    table_lookups: int = 0
    superblock_reads: int = 0
    offset_reads: int = 0
    wt_ranks: int = 0
    bs_steps: int = 0
    ftab_lookups: int = 0
    queries: int = 0
    occ_checkpoint_ranks: int = 0
    occ_scan_chars: int = 0
    reads_invalid: int = 0

    def snapshot(self) -> dict[str, int]:
        """Return the current counts as a plain dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "OpCounters") -> None:
        """Accumulate ``other``'s counts into this instance."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class _Uncounted(OpCounters):
    """Counters that read zero and drop every charge."""

    def __setattr__(self, name: str, value: int) -> None:
        pass


#: What :func:`current_counters` returns outside every scope.
UNCOUNTED: OpCounters = _Uncounted()

_ACTIVE: ContextVar[OpCounters] = ContextVar("op_counters", default=UNCOUNTED)


def current_counters() -> OpCounters:
    """The innermost open scope's counters, or :data:`UNCOUNTED`."""
    return _ACTIVE.get()


class CounterScope:
    """Count the operations run inside a ``with`` block on this context.

    ``counters`` is live while the block runs; ``delta`` holds the final
    counts once it exits (also on an exception).  A scope's counts fold
    into the enclosing scope when it closes.

    Example
    -------
    >>> with CounterScope() as scope:
    ...     current_counters().bs_steps += 3
    >>> scope.delta["bs_steps"]
    3
    """

    def __init__(self) -> None:
        self.counters = OpCounters()
        self.delta: dict[str, int] = {}

    def __enter__(self) -> "CounterScope":
        self._token = _ACTIVE.set(self.counters)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.reset(self._token)
        self.delta = self.counters.snapshot()
        current_counters().merge(self.counters)
