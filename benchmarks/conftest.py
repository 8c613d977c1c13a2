"""Shared benchmark fixtures.

Benches reuse the :mod:`repro.bench.harness` caches (references, suffix
arrays, indexes) so the suite spends its time on the measured kernels,
not on rebuilding substrates.  Every bench writes its reproduced table/figure rows to
``benchmarks/results/<name>.txt`` *and* prints them, so the artifacts
survive pytest's output capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_report():
    """Persist a rendered table under benchmarks/results/ and echo it."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save


@pytest.fixture(scope="session")
def ecoli_index():
    from repro.bench.harness import get_index

    return get_index("ecoli")


@pytest.fixture(scope="session")
def chr21_index():
    from repro.bench.harness import get_index

    return get_index("chr21")


@pytest.fixture(scope="session")
def ecoli_reference():
    from repro.bench.harness import get_reference

    return get_reference("ecoli")


@pytest.fixture(scope="session")
def chr21_reference():
    from repro.bench.harness import get_reference

    return get_reference("chr21")
