"""Seed-and-extend alignment on top of the FM-index seeder.

This is the pipeline the paper's introduction motivates: "most of the
existing aligners ... rely on a seed-and-extend strategy where the
mapping of short DNA fragments is used to determine candidate loci in the
genome (seeds) to be extended by the actual alignment algorithm."

Stages:

1. **Seeding** — non-overlapping ``seed_length``-mers of the read (both
   strands) are exact-matched through the FM-index; their located
   positions, shifted by the seed's offset in the read, vote for
   candidate loci.
2. **Candidate filtering** — loci are merged within a small slack and
   ranked by vote count; at most ``max_candidates`` survive (the
   sensitivity/speed heuristic the paper describes as "minimal loss in
   sensitivity").
3. **Extension** — each candidate window is aligned with Smith-Waterman
   (:mod:`repro.mapper.smith_waterman`) and the best-scoring alignment is
   reported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


from ..index.fm_index import FMIndex
from ..sequence.alphabet import reverse_complement
from .smith_waterman import Alignment, ScoringScheme, smith_waterman


@dataclass(frozen=True)
class SeedExtendHit:
    """Best alignment of a read, with its provenance."""

    read_id: int
    strand: str
    locus: int
    alignment: Alignment
    seed_votes: int


@dataclass(frozen=True)
class SeedExtendConfig:
    """Tunables of the pipeline (defaults sized for 100 bp reads)."""

    seed_length: int = 20
    max_seed_hits: int = 64
    max_candidates: int = 8
    locus_slack: int = 8
    window_pad: int = 16
    scoring: ScoringScheme = ScoringScheme()

    def __post_init__(self):
        if self.seed_length < 4:
            raise ValueError("seed_length must be >= 4")
        if self.max_candidates < 1 or self.max_seed_hits < 1:
            raise ValueError("candidate limits must be >= 1")


class SeedExtendAligner:
    """Approximate aligner: FM-index seeds + Smith-Waterman extension.

    Parameters
    ----------
    index:
        FM-index over the reference, built with a locate structure.
    reference:
        The reference sequence string (needed to slice extension windows;
        the succinct index alone cannot serve substrings efficiently).
    config:
        Pipeline tunables.
    """

    def __init__(self, index: FMIndex, reference: str, config: SeedExtendConfig | None = None):
        if index.locate_structure is None:
            raise ValueError("seed-and-extend requires an index with locate support")
        self.index = index
        self.reference = reference
        self.config = config if config is not None else SeedExtendConfig()

    def _seed_loci(self, seq: str) -> Counter:
        """Candidate loci voted by the read's non-overlapping seeds."""
        cfg = self.config
        votes: Counter = Counter()
        for off in range(0, max(1, len(seq) - cfg.seed_length + 1), cfg.seed_length):
            seed = seq[off : off + cfg.seed_length]
            if len(seed) < cfg.seed_length:
                break
            res = self.index.search(seed)
            if not res.found or res.count > cfg.max_seed_hits:
                # Over-repetitive seeds are discarded, as real seeders do.
                continue
            positions = self.index.locate_structure.locate_range(
                res.start,
                res.end,
                lf=self.index.backend.lf,
                lf_many=self.index.backend.lf_many,
            )
            for p in positions.tolist():
                votes[int(p) - off] += 1
        return votes

    def _merge_loci(self, votes: Counter) -> list[tuple[int, int]]:
        """Merge nearby loci and return ``(locus, votes)`` best-first."""
        if not votes:
            return []
        slack = self.config.locus_slack
        merged: list[tuple[int, int]] = []
        for locus in sorted(votes):
            if merged and locus - merged[-1][0] <= slack:
                prev_locus, prev_votes = merged[-1]
                # Keep the stronger representative of the cluster.
                if votes[locus] > prev_votes:
                    merged[-1] = (locus, prev_votes + votes[locus])
                else:
                    merged[-1] = (prev_locus, prev_votes + votes[locus])
            else:
                merged.append((locus, votes[locus]))
        merged.sort(key=lambda lv: -lv[1])
        return merged[: self.config.max_candidates]

    def align_read(self, read: str, read_id: int = 0) -> SeedExtendHit | None:
        """Best local alignment of ``read`` on either strand, or ``None``."""
        cfg = self.config
        best: SeedExtendHit | None = None
        for strand, seq in (("+", read), ("-", reverse_complement(read))):
            for locus, n_votes in self._merge_loci(self._seed_loci(seq)):
                lo = max(0, locus - cfg.window_pad)
                hi = min(len(self.reference), locus + len(seq) + cfg.window_pad)
                window = self.reference[lo:hi]
                aln = smith_waterman(seq, window, cfg.scoring)
                if aln.score <= 0:
                    continue
                shifted = Alignment(
                    score=aln.score,
                    query_start=aln.query_start,
                    query_end=aln.query_end,
                    target_start=aln.target_start + lo,
                    target_end=aln.target_end + lo,
                    cigar=aln.cigar,
                )
                cand = SeedExtendHit(read_id, strand, locus, shifted, n_votes)
                if best is None or cand.alignment.score > best.alignment.score:
                    best = cand
        return best

    def align_reads(self, reads) -> list[SeedExtendHit | None]:
        return [self.align_read(r, i) for i, r in enumerate(reads)]
