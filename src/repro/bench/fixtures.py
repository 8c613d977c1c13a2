"""Shared input builders for benchmarks, tests, and platform workloads.

Benchmark workloads and the test suite must measure and assert on the
*same* inputs: a perf delta observed by ``repro bench run`` is only
comparable with a correctness property checked in ``tests/`` if both
built their reference and read set from the same seeded generators.
This module is that single source — ``tests/conftest.py`` and
:mod:`repro.bench.platform.workloads` import from here instead of
keeping private copies.  Named-profile references (``ecoli``/``chr21``)
come from :func:`repro.bench.harness.get_reference`.

Everything is deterministic in its ``seed`` argument and cheap enough to
call from session-scoped fixtures.
"""

from __future__ import annotations

import numpy as np

from ..sequence.alphabet import decode

#: Seed offset separating read streams from reference streams.  Sharing a
#: seed would make "random" unmapped reads replay the reference
#: generator's stream and spuriously share long substrings with it.
READ_SEED_OFFSET = 1000


def make_dna(n: int, seed: int = 0, gc: float = 0.5) -> str:
    """Deterministic random DNA of length ``n`` with the given GC content."""
    rng = np.random.default_rng(seed)
    at = (1 - gc) / 2
    gcp = gc / 2
    return decode(rng.choice(4, size=n, p=[at, gcp, gcp, at]).astype(np.uint8))


def make_repetitive_dna(
    unit_length: int = 100,
    repeats: int = 12,
    tail_length: int = 400,
    seed: int = 7,
) -> str:
    """DNA with strong repeat structure (low BWT entropy)."""
    unit = make_dna(unit_length, seed=seed)
    return (unit * repeats) + make_dna(tail_length, seed=seed + 1) + unit[:50] * 4


def seeded_reads(
    reference: str,
    n_reads: int,
    read_length: int,
    mapping_ratio: float = 0.75,
    seed: int = 7,
) -> list[str]:
    """Seeded read set with a controlled mapped fraction.

    The effective read-simulator seed is decoupled from ``seed`` via
    :data:`READ_SEED_OFFSET` plus a ratio-dependent term, matching the
    discipline the figure sweeps use (each ratio gets an independent
    stream so series points are not correlated).
    """
    from ..io.readsim import simulate_reads

    return simulate_reads(
        reference,
        n_reads,
        read_length,
        mapping_ratio=mapping_ratio,
        seed=seed * READ_SEED_OFFSET + 17 + int(mapping_ratio * 100),
    ).reads
