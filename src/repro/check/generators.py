"""Seeded generators for adversarial self-check inputs.

Everything is driven by an explicit :class:`numpy.random.Generator`, so a
``(seed, round, check)`` triple always regenerates the same case — the
property that makes a failing selfcheck run reproducible from its
one-line summary.

The generators are deliberately adversarial rather than uniform:

* bit-vector lengths cluster around block and superblock boundaries
  (``k·b·sf ± 1`` and ``k·b ± 1``), where the RRR early-exit branches
  and partial-block reads live;
* densities include all-zeros, all-ones and near-degenerate mixes;
* pattern corpora always contain the empty string, lowercase and
  ``U``-spelled variants, ``N``/IUPAC-contaminated reads, the whole
  reference, and patterns longer than the reference — the exact classes
  that found the two seed bugs this subsystem regression-guards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sequence.alphabet import decode, reverse_complement

#: Characters outside the strict alphabet that real FASTQ files contain.
IUPAC_EXTRA = "NRYSWKMBDHVn"


@dataclass(frozen=True)
class CheckProfile:
    """Knobs bounding how big/expensive one selfcheck round is."""

    name: str
    max_text: int          #: reference length upper bound
    n_patterns: int        #: patterns per corpus
    n_reads: int           #: reads per mapper/kernel round
    include_pool: bool     #: run the MapperPool pair (spawns processes)
    heavy_every: int       #: run kernel/flat checks every Nth round


PROFILES: dict[str, CheckProfile] = {
    "quick": CheckProfile("quick", max_text=300, n_patterns=10, n_reads=8,
                          include_pool=False, heavy_every=5),
    "default": CheckProfile("default", max_text=800, n_patterns=14, n_reads=12,
                            include_pool=True, heavy_every=2),
    "thorough": CheckProfile("thorough", max_text=2000, n_patterns=20, n_reads=16,
                             include_pool=True, heavy_every=1),
}


def rng_for(seed: int, round_index: int, check_index: int) -> np.random.Generator:
    """The deterministic per-(seed, round, check) generator."""
    return np.random.default_rng([seed, round_index, check_index])


# -- bit-vectors --------------------------------------------------------------


def gen_bitvector_case(rng: np.random.Generator) -> tuple[np.ndarray, int, int]:
    """One ``(bits, b, sf)`` case targeting block/superblock boundaries."""
    b = int(rng.choice([3, 5, 8, 15]))
    sf = int(rng.choice([2, 4, 8, 50]))
    sb = b * sf
    boundary_sizes = [
        1, 2, b - 1, b, b + 1, sb - 1, sb, sb + 1, 2 * sb - 1, 2 * sb, 2 * sb + 1,
    ]
    kind = rng.random()
    if kind < 0.6:
        n = int(rng.choice(boundary_sizes))
    else:
        n = int(rng.integers(1, 3 * sb + 2))
    density = float(rng.choice([0.0, 1.0, 0.05, 0.5, 0.95]))
    bits = (rng.random(n) < density).astype(np.uint8)
    return bits, b, sf


# -- texts --------------------------------------------------------------------


def gen_text(rng: np.random.Generator, profile: CheckProfile) -> str:
    """One reference text: random DNA, boundary-ish length, never empty."""
    kind = rng.random()
    if kind < 0.15:
        n = int(rng.integers(1, 8))  # tiny references
    elif kind < 0.25:
        # Low-complexity: homopolymers and short repeats stress locate.
        unit = decode(rng.integers(0, 4, size=int(rng.integers(1, 4))).astype(np.uint8))
        reps = int(rng.integers(4, max(5, profile.max_text // max(1, len(unit)))))
        return (unit * reps)[: profile.max_text]
    else:
        n = int(rng.integers(8, profile.max_text + 1))
    return decode(rng.integers(0, 4, size=n).astype(np.uint8))


# -- pattern / read corpora ---------------------------------------------------


def _substring(rng: np.random.Generator, text: str, max_len: int | None = None) -> str:
    n = len(text)
    length = int(rng.integers(1, n + 1))
    if max_len is not None:
        length = min(length, max_len)
    start = int(rng.integers(0, n - length + 1))
    return text[start : start + length]


def _mutate(rng: np.random.Generator, s: str) -> str:
    if not s:
        return s
    i = int(rng.integers(0, len(s)))
    return s[:i] + "ACGT"[int(rng.integers(0, 4))] + s[i + 1 :]


def _inject_invalid(rng: np.random.Generator, s: str) -> str:
    ch = IUPAC_EXTRA[int(rng.integers(0, len(IUPAC_EXTRA)))]
    i = int(rng.integers(0, len(s) + 1))
    return s[:i] + ch + s[i:]


def gen_pattern_corpus(
    rng: np.random.Generator, text: str, n: int, include_invalid: bool = True
) -> list[str]:
    """A pattern corpus for ``text``: edge classes first, then random.

    Always contains: the empty pattern, a lowercase spelling, a
    ``U``-spelled pattern, the whole text, and a pattern longer than the
    text.  ``include_invalid`` adds ``N``/IUPAC-contaminated entries
    (checks against raw :class:`~repro.index.fm_index.FMIndex` queries
    expect those to raise; mapper checks expect unmapped-with-reason).
    """
    corpus = [
        "",
        _substring(rng, text).lower(),
        _substring(rng, text).replace("T", "U"),
        text,
        text + decode(rng.integers(0, 4, size=4).astype(np.uint8)),  # longer than ref
    ]
    if include_invalid:
        corpus.append(_inject_invalid(rng, _substring(rng, text)))
        corpus.append("N" * int(rng.integers(1, 4)))
    while len(corpus) < n:
        r = rng.random()
        if r < 0.5:
            corpus.append(_substring(rng, text))
        elif r < 0.8:
            corpus.append(_mutate(rng, _substring(rng, text)))
        else:
            corpus.append(decode(rng.integers(0, 4, size=int(rng.integers(1, 12))).astype(np.uint8)))
    return corpus[:max(n, 7)]


def gen_read_corpus(rng: np.random.Generator, text: str, n: int) -> list[str]:
    """A read corpus for mapper/kernel checks (capped at 176 bases so the
    same reads can go through the FPGA record packing).

    Always contains a ``U``-spelled read from the reverse strand, so the
    both-strand paths see a ``U`` whose complement (``A``) they search.
    """
    reads = [
        "",
        _substring(rng, text, max_len=176).lower(),
        text[:176],
        _inject_invalid(rng, _substring(rng, text, max_len=40)),
        reverse_complement(_substring(rng, text, max_len=176)).replace("T", "U"),
    ]
    if len(text) <= 172:
        reads.append(text + "ACGT")  # longer than the reference, still packable
    while len(reads) < n:
        r = rng.random()
        if r < 0.6:
            reads.append(_substring(rng, text, max_len=176))
        else:
            reads.append(_mutate(rng, _substring(rng, text, max_len=176)))
    return reads[:max(n, 6)]
