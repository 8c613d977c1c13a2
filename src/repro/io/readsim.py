"""Read simulation with exact mapping-ratio control (Fig. 7's knob).

The paper's Fig. 7 sweeps the *percentage of mapped reads* (0-100 %)
because the backward search terminates early on reads that do not occur
in the reference — mapping time is driven by this ratio, not by the
reference length.  To reproduce that axis we need read sets whose mapped
fraction is exact by construction:

* **mapped reads** are substrings sampled uniformly from the reference
  (half of them reverse-complemented, since BWaveR searches both
  strands);
* **unmapped reads** are random sequences *rejected against the
  reference*: a candidate is regenerated until neither it nor its
  reverse complement occurs, so "unmapped" is guaranteed, not just
  probable.

Every simulator is deterministic in its seed and returns the ground
truth alongside the reads, which the accuracy tests compare against
mapper output (the paper claims "without any loss in accuracy"; our
tests hold the mapper to exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sequence.alphabet import random_sequence, reverse_complement
from .fastq import FastqRecord


@dataclass(frozen=True)
class ReadTruth:
    """Ground truth for one simulated read."""

    name: str
    mapped: bool
    position: int  # sampling position for mapped reads, -1 otherwise
    strand: str  # '+', '-', or '.' for unmapped


@dataclass(frozen=True)
class SimulatedReadSet:
    """Reads plus ground truth plus the parameters that produced them."""

    reads: list[str]
    truth: list[ReadTruth]
    read_length: int
    mapping_ratio: float

    @property
    def n_reads(self) -> int:
        return len(self.reads)

    def to_fastq(self, quality_char: str = "I") -> list[FastqRecord]:
        """Render as FASTQ records (constant quality — exact matching
        never reads qualities)."""
        return [
            FastqRecord(name=t.name, sequence=r, quality=quality_char * len(r))
            for r, t in zip(self.reads, self.truth)
        ]


def simulate_reads(
    reference: str,
    n_reads: int,
    read_length: int,
    mapping_ratio: float = 1.0,
    rc_fraction: float = 0.5,
    seed: int = 0,
    max_reject_attempts: int = 100,
) -> SimulatedReadSet:
    """Simulate ``n_reads`` of ``read_length`` bp with the given mapped
    fraction.

    Parameters
    ----------
    reference:
        The genome string reads are drawn from / rejected against.
    mapping_ratio:
        Exact fraction of reads that occur in the reference (the count is
        ``round(n_reads * mapping_ratio)``); reads are then shuffled so
        mapped/unmapped interleave as they would in a real run.
    rc_fraction:
        Fraction of *mapped* reads emitted as the reverse complement of
        their source locus.
    max_reject_attempts:
        Safety bound for the unmapped-read rejection loop (hit only on
        tiny or pathological references).
    """
    if not 0.0 <= mapping_ratio <= 1.0:
        raise ValueError("mapping_ratio must lie in [0, 1]")
    if not 0.0 <= rc_fraction <= 1.0:
        raise ValueError("rc_fraction must lie in [0, 1]")
    if read_length < 1:
        raise ValueError("read_length must be >= 1")
    if read_length > len(reference):
        raise ValueError(
            f"read_length {read_length} exceeds reference length {len(reference)}"
        )
    rng = np.random.default_rng(seed)
    n_mapped = int(round(n_reads * mapping_ratio))
    reads: list[str] = []
    truth: list[ReadTruth] = []

    # Mapped reads: uniform loci; strand flips for rc_fraction of them.
    positions = rng.integers(0, len(reference) - read_length + 1, size=n_mapped)
    flips = rng.random(n_mapped) < rc_fraction
    for i, (pos, flip) in enumerate(zip(positions.tolist(), flips.tolist())):
        frag = reference[pos : pos + read_length]
        seq = reverse_complement(frag) if flip else frag
        reads.append(seq)
        truth.append(
            ReadTruth(
                name=f"mapped_{i}",
                mapped=True,
                position=int(pos),
                strand="-" if flip else "+",
            )
        )

    # Unmapped reads: rejection-sample random sequences.
    rc_ref = reverse_complement(reference)
    for i in range(n_reads - n_mapped):
        for attempt in range(max_reject_attempts):
            cand = random_sequence(read_length, rng)
            if cand not in reference and cand not in rc_ref:
                break
        else:
            raise RuntimeError(
                f"could not generate an unmapped read of length {read_length} "
                f"after {max_reject_attempts} attempts; the reference is too "
                f"saturated — use longer reads"
            )
        reads.append(cand)
        truth.append(ReadTruth(name=f"unmapped_{i}", mapped=False, position=-1, strand="."))

    # Interleave mapped and unmapped deterministically.
    order = rng.permutation(len(reads))
    reads = [reads[j] for j in order]
    truth = [truth[j] for j in order]
    return SimulatedReadSet(
        reads=reads,
        truth=truth,
        read_length=read_length,
        mapping_ratio=n_mapped / n_reads if n_reads else 0.0,
    )


def mutate_reads(
    reads: list[str],
    substitutions: int,
    seed: int = 0,
) -> list[str]:
    """Apply exactly ``substitutions`` point mutations to each read.

    Used by the mismatch-search tests and the approximate-matching
    example to create reads that exact matching misses but
    ``k``-mismatch search recovers.
    """
    if substitutions < 0:
        raise ValueError("substitutions must be >= 0")
    rng = np.random.default_rng(seed)
    out: list[str] = []
    bases = "ACGT"
    for read in reads:
        if substitutions > len(read):
            raise ValueError("more substitutions than read positions")
        chars = list(read)
        sites = rng.choice(len(read), size=substitutions, replace=False)
        for s in sites.tolist():
            alternatives = [b for b in bases if b != chars[s]]
            chars[s] = alternatives[int(rng.integers(0, 3))]
        out.append("".join(chars))
    return out
