"""Output oracle that shares no code with the program under test.

Exact matches are found with overlapping ``str.find`` over the plain
reference text, for each read and for its reverse complement.  Every
checker returns the number of wrong items it found, so the workloads can
count them into ``failed``.
"""

from __future__ import annotations

import json

_COMPLEMENT = str.maketrans("ACGT", "TGCA")


def revcomp(seq: str) -> str:
    return seq.translate(_COMPLEMENT)[::-1]


def occurrences(text: str, pattern: str) -> list[int]:
    """Every start of ``pattern`` in ``text``, overlaps included."""
    out: list[int] = []
    i = text.find(pattern)
    while i >= 0:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def strand_positions(text: str, read: str) -> tuple[list[int], list[int]]:
    """(forward positions, reverse-complement positions) of one read."""
    return occurrences(text, read), occurrences(text, revcomp(read))


def _positions_field(positions: list[int]) -> str:
    return ",".join(map(str, positions)) if positions else "."


def expected_tsv_row(index: int, text: str, read: str) -> str:
    fwd, rc = strand_positions(text, read)
    return (
        f"read{index}\t{len(read)}\t{len(fwd)}\t{len(rc)}"
        f"\t{_positions_field(fwd)}\t{_positions_field(rc)}"
    )


def check_tsv(tsv_text: str, n_reads: int, expected: dict[int, str]) -> int:
    """Wrong rows in a hits TSV: a bad header, a wrong row count, or any
    sampled row (``expected``: row index -> oracle row) that differs."""
    lines = tsv_text.splitlines()
    wrong = 0
    if not lines or lines[0] != "read\tlength\tfwd_count\trc_count\tfwd_positions\trc_positions":
        wrong += 1
    rows = lines[1:]
    if len(rows) != n_reads:
        wrong += 1
    for i, want in expected.items():
        if i >= len(rows) or rows[i] != want:
            wrong += 1
    return wrong


def expected_catalog_hits(shards: list[tuple[str, str]], read: str) -> list[tuple[str, int, str]]:
    """Per-reference hits in catalog order, then position, then strand."""
    hits: list[tuple[str, int, str]] = []
    rc = revcomp(read)
    for name, text in shards:
        found = [(p, "+") for p in occurrences(text, read)]
        found += [(p, "-") for p in occurrences(text, rc)]
        hits.extend((name, p, s) for p, s in sorted(found))
    return hits


def check_catalog_json(
    doc: dict, n_reads: int, expected: dict[int, list[tuple[str, int, str]]]
) -> int:
    """Wrong results in a ``POST /map?catalog`` JSON reply."""
    results = doc.get("results")
    if not isinstance(results, list) or len(results) != n_reads or doc.get("n_reads") != n_reads:
        return 1
    wrong = 0
    for i, want in expected.items():
        r = results[i]
        got = [(h.get("ref"), h.get("position"), h.get("strand")) for h in r.get("hits", [])]
        if got != want or r.get("n_hits") != len(want):
            wrong += 1
    return wrong


def parse_json(body: bytes) -> dict | None:
    try:
        doc = json.loads(body)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def check_segment_crcs(got: list[dict], want: list[dict]) -> int:
    """Segments of a built container whose name, size or CRC differ from
    the reference build's manifest."""
    key = lambda s: (s["name"], s["nbytes"], s["crc32"])  # noqa: E731
    got_keys, want_keys = [key(s) for s in got], [key(s) for s in want]
    if len(got_keys) != len(want_keys):
        return max(1, abs(len(got_keys) - len(want_keys)))
    return sum(1 for g, w in zip(got_keys, want_keys) if g != w)
