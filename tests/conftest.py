"""Shared fixtures: deterministic sequences and prebuilt indexes.

Session-scoped indexes keep the suite fast — the structures are immutable
after construction, and tests that need instrumentation attach their own
counter scopes rather than mutating shared state.

Input construction lives in :mod:`repro.bench.fixtures` so tests and
benchmark workloads build identical inputs from the same seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_index
from repro.bench.fixtures import make_dna, make_repetitive_dna

__all__ = ["make_dna"]


@pytest.fixture(scope="session")
def small_text() -> str:
    """~2 kbp of deterministic random DNA."""
    return make_dna(2000, seed=42)


@pytest.fixture(scope="session")
def repetitive_text() -> str:
    """DNA with strong repeat structure (low BWT entropy)."""
    return make_repetitive_dna(seed=7)


@pytest.fixture(scope="session")
def small_index(small_text):
    """Succinct-backend index over ``small_text`` (b=15, sf=8)."""
    index, report = build_index(small_text, b=15, sf=8)
    return index


@pytest.fixture(scope="session")
def small_index_report(small_text):
    index, report = build_index(small_text, b=15, sf=8)
    return index, report


@pytest.fixture(scope="session")
def occ_index(small_text):
    """Checkpointed-Occ-backend index over the same text."""
    index, _ = build_index(small_text, backend="occ")
    return index


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _isolate_global_telemetry():
    """Restore the process-wide telemetry instance after every test.

    Constructing :class:`~repro.web.server.BWaveRApp` (and several
    telemetry tests) installs an enabled instance globally; without this
    reset it would leak instrumentation overhead into unrelated tests.
    """
    from repro.telemetry import get_telemetry, set_telemetry

    before = get_telemetry()
    yield
    set_telemetry(before)
