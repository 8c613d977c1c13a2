#!/usr/bin/env python3
"""Multi-chromosome references.

Real mapping jobs run against multi-FASTA references (chromosomes,
contigs).  :class:`~repro.index.multiref.MultiReferenceIndex` builds one
index over three named sequences, reports hits in per-chromosome
coordinates and filters concatenation-boundary artifacts.

Run:  python examples/multi_chromosome.py
"""

import numpy as np

from repro.index.multiref import MultiReferenceIndex
from repro.sequence.alphabet import reverse_complement


def make_seq(n, seed):
    rng = np.random.default_rng(seed)
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


def main() -> None:
    chroms = [
        ("chr1", make_seq(8000, 61)),
        ("chr2", make_seq(5000, 62)),
        ("chrM", make_seq(1200, 63)),
    ]
    index = MultiReferenceIndex(chroms, b=15, sf=50)
    print(index)
    for line in index.sam_header():
        print(f"  {line}")

    rng = np.random.default_rng(64)
    print("\nreads drawn from random chromosomes:")
    for i in range(5):
        name, seq = chroms[int(rng.integers(0, 3))]
        pos = int(rng.integers(0, len(seq) - 60))
        read = seq[pos : pos + 60]
        if rng.random() < 0.5:
            read = reverse_complement(read)
        mapping = index.map_read(read, read_id=i)
        hit = mapping.hits[0]
        ok = hit.name == name and hit.position == pos
        print(f"  read{i}: truth {name}:{pos} -> mapped {hit.name}:{hit.position} "
              f"({hit.strand}) {'OK' if ok else 'MISMATCH'}")
        assert ok

    # Boundary artifact check: a read spanning chr1|chr2 must NOT map.
    spanning = chroms[0][1][-30:] + chroms[1][1][:30]
    assert not index.map_read(spanning).mapped
    print("  boundary-spanning read correctly reported unmapped")


if __name__ == "__main__":
    main()
