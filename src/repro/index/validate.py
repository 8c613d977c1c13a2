"""Structure self-validation ("fsck" for the index).

The web workflow persists indexes and reloads them across runs; before
committing hours of mapping to a loaded structure, a paranoid consumer
can verify its internal invariants.  :func:`validate_index` checks:

1. **C-array consistency** — ``C[a+1] - C[a]`` must equal
   ``Occ(a, n_rows)`` for every symbol (the BWT permutes the text, so
   symbol totals agree), and ``C[sigma]`` must equal ``n_rows``;
2. **LF bijectivity (sampled)** — the last-first mapping is a
   permutation: sampled rows map injectively and every image is in range;
3. **Occ monotonicity (sampled)** — ``Occ(a, i)`` is non-decreasing in
   ``i`` with unit steps;
4. **locate/search agreement (sampled)** — patterns extracted from the
   suffix array's own rows must be found at their positions;
5. **suffix-array order (sampled)** — Eq. 1 on random adjacent pairs
   (when a locate structure with a full SA is attached);
6. **sampled locate** (when a :class:`SampledSA` is attached) — the mark
   vector's popcount, the number of samples and ``ceil(n_rows / k)``
   agree; the samples are a permutation of ``range(ceil(n_rows / k))``;
   and on a seeded sample of marked and random rows,
   ``locate(lf(row)) + 1 == locate(row)`` (mod ``n_rows``);
7. **k-mer table** (when an :class:`~repro.index.ftab.Ftab` is
   attached) — its boundaries never decrease and end at ``n_rows``; its
   stored short suffixes equal the text's last ``k - 1`` symbols as
   ``k - 1`` LF steps from row 0 spell them; and the entries around
   every short suffix plus a seeded sample of k-mers (random ones, and
   ones spelled by LF walks, which occur) answer the scalar search's
   ``(lo, hi, steps)``.

Failures raise :class:`IndexValidationError` naming the broken
invariant; success returns a small report of what was checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sequence.sampled_sa import FullSA, SampledSA
from .fm_index import FMIndex

SIGMA = 4


class IndexValidationError(RuntimeError):
    """An index invariant does not hold."""


@dataclass
class ValidationReport:
    """What was verified, with sample sizes."""

    n_rows: int = 0
    checks: dict[str, int] = field(default_factory=dict)

    def record(self, name: str, samples: int) -> None:
        self.checks[name] = samples


def validate_index(
    index: FMIndex,
    samples: int = 64,
    seed: int = 0,
) -> ValidationReport:
    """Verify the index's invariants; raise on the first violation."""
    backend = index.backend
    n_rows = backend.n_rows
    rng = np.random.default_rng(seed)
    report = ValidationReport(n_rows=n_rows)

    # 1. C array.
    total = sum(backend.occ(a, n_rows) for a in range(SIGMA))
    c_span = [backend.count_smaller(a) for a in range(SIGMA)]
    if c_span != sorted(c_span):
        raise IndexValidationError("C array is not non-decreasing")
    if c_span[0] != 1:
        raise IndexValidationError(
            f"C[0] must be 1 (the sentinel), got {c_span[0]}"
        )
    for a in range(SIGMA - 1):
        span = c_span[a + 1] - c_span[a]
        occ_a = backend.occ(a, n_rows)
        if span != occ_a:
            raise IndexValidationError(
                f"C-array span for symbol {a} is {span} but Occ({a}, n) = {occ_a}"
            )
    if 1 + total != n_rows:
        raise IndexValidationError(
            f"symbol totals ({total}) + sentinel != matrix rows ({n_rows})"
        )
    report.record("c_array", SIGMA)

    # 2. LF bijectivity on a sample.
    rows = rng.choice(n_rows, size=min(samples, n_rows), replace=False)
    images = [backend.lf(int(r)) for r in rows]
    if len(set(images)) != len(images):
        raise IndexValidationError("LF mapping is not injective on the sample")
    if any(not 0 <= i < n_rows for i in images):
        raise IndexValidationError("LF image out of range")
    report.record("lf_bijective", len(rows))

    # 3. Occ monotonicity with unit steps.
    for a in range(SIGMA):
        positions = np.sort(rng.choice(n_rows + 1, size=min(samples, n_rows + 1), replace=False))
        values = [backend.occ(a, int(p)) for p in positions]
        for (p1, v1), (p2, v2) in zip(zip(positions, values), zip(positions[1:], values[1:])):
            if not (0 <= v2 - v1 <= p2 - p1):
                raise IndexValidationError(
                    f"Occ({a}, ·) not monotone with unit steps between "
                    f"{p1} and {p2}: {v1} -> {v2}"
                )
    report.record("occ_monotone", SIGMA * min(samples, n_rows + 1))

    # 4/5. SA-backed checks when a full SA is present.
    loc = index.locate_structure
    if isinstance(loc, FullSA):
        sa = loc.sa
        n = n_rows - 1
        if not np.array_equal(np.sort(sa), np.arange(n_rows)):
            raise IndexValidationError("suffix array is not a permutation")
        if n >= 8:
            # Patterns recovered from the index itself (via LF extraction,
            # independent of any stored text) must be located back at the
            # positions they were extracted from.
            from .extract import TextExtractor

            extractor = TextExtractor(backend, sa, sample_rate=max(1, n // 8))
            for _ in range(min(samples, 32)):
                start = int(rng.integers(0, n - 7))
                pattern = extractor.extract(start, 8)
                hits = index.locate(pattern)
                if start not in hits.tolist():
                    raise IndexValidationError(
                        f"pattern extracted at {start} not located there"
                    )
            report.record("locate_roundtrip", min(samples, 32))
    elif isinstance(loc, SampledSA):
        _validate_sampled(loc, backend, n_rows, samples, rng, report)
    if index.ftab is not None:
        _validate_ftab(index.ftab, backend, samples, rng, report)
    return report


def _spell(backend, row: int, length: int) -> list[int]:
    """The up to ``length`` symbols before row ``row``'s suffix, nearest
    last, read by scalar LF steps (fewer when the text starts sooner)."""
    syms: list[int] = []
    for _ in range(length):
        sym = backend.access(row)
        if sym < 0:  # the sentinel: the walk reached the text's start
            break
        syms.append(sym)
        row = backend.lf(row)
    return syms[::-1]


def _validate_ftab(ftab, backend, samples: int, rng, report: ValidationReport) -> None:
    k, bounds, n_rows = ftab.k, ftab.bounds, backend.n_rows
    if np.any(np.diff(bounds.astype(np.int64)) < 0) or int(bounds[-1]) != n_rows:
        raise IndexValidationError(
            f"ftab boundaries decrease or end at {int(bounds[-1])}, not {n_rows}"
        )
    report.record("ftab_boundaries", int(bounds.size))
    # Row 0 is "$": walking back from it spells the text's last symbols.
    last = _spell(backend, 0, k - 1)
    # Entry m - 1 is the length-m suffix's j_w.
    want = [
        int(np.dot(last[-m:], SIGMA ** np.arange(m - 1, -1, -1))) * SIGMA ** (k - m)
        for m in range(1, len(last) + 1)
    ]
    if ftab.tails.tolist() != want:
        raise IndexValidationError(
            f"ftab short suffixes {ftab.tails.tolist()} differ from the "
            f"text's, {want}"
        )
    report.record("ftab_tail", len(want))
    # The entries a short suffix borders, seeded random k-mers, and
    # k-mers spelled back from seeded rows (which occur in the text).
    spelled = [_spell(backend, int(r), k) for r in rng.integers(0, n_rows, samples)]
    idx = np.unique(np.concatenate([
        [j - d for j in want for d in (0, 1) if j - d >= 0],
        rng.integers(0, SIGMA**k, samples),
        [int(np.dot(s, SIGMA ** np.arange(k - 1, -1, -1))) for s in spelled if len(s) == k],
    ]).astype(np.int64))
    plain = FMIndex(backend)
    lo, hi, steps = ftab.lookup_many(idx)
    for j, got in zip(idx.tolist(), zip(lo.tolist(), hi.tolist(), steps.tolist())):
        codes = (j // SIGMA ** np.arange(k - 1, -1, -1)) % SIGMA
        res = plain.search(codes)
        if got != (res.start, res.end, res.steps):
            raise IndexValidationError(
                f"ftab entry {j} holds (lo, hi, steps) = {got}; the search "
                f"answers {(res.start, res.end, res.steps)}"
            )
    report.record("ftab_entries", int(idx.size))


def _validate_sampled(
    loc: SampledSA, backend, n_rows: int, samples: int, rng, report: ValidationReport
) -> None:
    want = -(-n_rows // loc.k)
    marked = loc.marks.count()
    if not marked == loc.samples.size == want:
        raise IndexValidationError(
            f"sampled SA holds {marked} marks and {loc.samples.size} samples; "
            f"ceil({n_rows} / {loc.k}) = {want}"
        )
    report.record("sampled_counts", 1)
    if not np.array_equal(np.sort(loc.samples), np.arange(want)):
        raise IndexValidationError(
            f"sampled SA samples are not a permutation of range({want})"
        )
    report.record("sampled_permutation", want)
    # Marked rows are where a wrong sample shows: a marked row's
    # predecessor walks k - 1 steps to the previous sample.
    ranks = rng.choice(marked, size=min(samples, marked), replace=False)
    rows = np.concatenate([
        [loc.marks.select1(int(j) + 1) for j in ranks],
        rng.choice(n_rows, size=min(samples, n_rows), replace=False),
    ]).astype(np.int64)
    pos = loc.locate_batch(rows, rows + 1, backend.lf_many)[0]
    prev_rows = backend.lf_many(rows)
    prev = loc.locate_batch(prev_rows, prev_rows + 1, backend.lf_many)[0]
    bad = np.flatnonzero((prev + 1) % n_rows != pos)
    if bad.size:
        row = int(rows[bad[0]])
        raise IndexValidationError(
            f"sampled locate breaks LF at row {row}: locate(lf(row)) + 1 = "
            f"{int(prev[bad[0]]) + 1}, locate(row) = {int(pos[bad[0]])}"
        )
    report.record("sampled_lf_step", int(rows.size))
