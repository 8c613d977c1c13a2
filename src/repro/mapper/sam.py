"""SAM output: single- and multi-reference, single-end.

The TSV hits table is BWaveR's native download; interoperating with the
wider toolchain (samtools, IGV) needs SAM.  This writer covers the
subset exact mapping produces:

* header: ``@HD``, one ``@SQ`` per reference sequence, ``@PG``;
* single-end records with flags 0/16/4, full-length ``M`` CIGAR,
  ``NH``-style hit counts in the ``NH:i`` tag.

Flags used (SAM spec bit names): 0x4 UNMAPPED, 0x10 REVERSE.
"""

from __future__ import annotations

from typing import IO, Sequence

from ..index.multiref import MultiReferenceIndex
from .results import MappingResult

FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10


def sam_header(reference_name: str, reference_length: int) -> list[str]:
    return [
        "@HD\tVN:1.6\tSO:unknown",
        f"@SQ\tSN:{reference_name}\tLN:{reference_length}",
        "@PG\tID:bwaver-repro\tPN:bwaver-repro",
    ]


def single_end_records(
    results: Sequence[MappingResult],
    reads: Sequence[str],
    reference_name: str,
) -> list[str]:
    """One line per occurrence; flag-4 line for unmapped reads."""
    lines: list[str] = []
    for res in results:
        seq = reads[res.read_id]
        total_hits = res.total_occurrences
        emitted = False
        for hit, flag in ((res.forward, 0), (res.reverse, FLAG_REVERSE)):
            if hit.positions is None:
                continue
            for pos in hit.positions.tolist():
                lines.append(
                    "\t".join(
                        [
                            res.read_name,
                            str(flag),
                            reference_name,
                            str(pos + 1),
                            "255",
                            f"{res.length}M",
                            "*",
                            "0",
                            "0",
                            seq,
                            "*",
                            f"NH:i:{total_hits}",
                        ]
                    )
                )
                emitted = True
        if not emitted:
            lines.append(
                f"{res.read_name}\t{FLAG_UNMAPPED}\t*\t0\t0\t*\t*\t0\t0\t{seq}\t*"
            )
    return lines


def write_sam_single(
    results: Sequence[MappingResult],
    reads: Sequence[str],
    out: IO[str],
    reference_name: str = "ref",
    reference_length: int = 0,
) -> int:
    """Header + single-end records; returns alignment-line count."""
    for line in sam_header(reference_name, reference_length):
        out.write(line + "\n")
    records = single_end_records(results, reads, reference_name)
    for line in records:
        out.write(line + "\n")
    return len(records)


def write_sam_multiref(
    index: MultiReferenceIndex,
    reads: Sequence[str],
    out: IO[str],
    read_names: Sequence[str] | None = None,
) -> int:
    """Map reads against a multi-reference index and emit full SAM.

    Every valid hit becomes a record with the correct per-sequence
    ``RNAME``/``POS``; unmapped reads get flag-4 lines.
    """
    for line in index.sam_header():
        out.write(line + "\n")
    out.write("@PG\tID:bwaver-repro\tPN:bwaver-repro\n")
    n = 0
    for i, read in enumerate(reads):
        qname = read_names[i] if read_names is not None else f"read{i}"
        mapping = index.map_read(read, read_id=i)
        if not mapping.mapped:
            out.write(f"{qname}\t{FLAG_UNMAPPED}\t*\t0\t0\t*\t*\t0\t0\t{read}\t*\n")
            n += 1
            continue
        nh = len(mapping.hits)
        for hit in mapping.hits:
            flag = FLAG_REVERSE if hit.strand == "-" else 0
            out.write(
                "\t".join(
                    [
                        qname,
                        str(flag),
                        hit.name,
                        str(hit.position + 1),
                        "255",
                        f"{len(read)}M",
                        "*",
                        "0",
                        "0",
                        read,
                        "*",
                        f"NH:i:{nh}",
                    ]
                )
                + "\n"
            )
            n += 1
    return n
