"""FASTA reading/writing, plain or gzipped (paper §III-D).

BWaveR's web workflow accepts the reference "as FASTA ... files ... both
in uncompressed or gzipped formats"; this module is that ingestion path.

Parsing is deliberately strict by default — a truncated or malformed
reference should fail loudly before hours of index construction — with an
explicit ``on_invalid`` policy for the ambiguity codes (``N`` etc.) real
references contain:

* ``"error"`` (default): raise :class:`FastaError`;
* ``"skip"``: drop invalid characters;
* ``"random"``: replace each with a random base (deterministic per seed),
  the common practice of FM-index mappers which cannot index ``N``.
"""

from __future__ import annotations

import gzip
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Literal, Sequence

import numpy as np

from ..sequence.alphabet import is_valid

InvalidPolicy = Literal["error", "skip", "random"]

_VALID_BASES = "ACGTUacgtu"
#: ``seq.translate`` with it leaves only the invalid characters, in order.
_DROP_VALID = str.maketrans("", "", _VALID_BASES)
_INVALID = re.compile(f"[^{_VALID_BASES}]")


class FastaError(ValueError):
    """Raised on malformed FASTA input."""


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: ``>name description`` plus its sequence."""

    name: str
    description: str
    sequence: str

    @property
    def length(self) -> int:
        return len(self.sequence)


def _open_text(path: str | Path, mode: str = "rt") -> IO[str]:
    """Open plain or gzip transparently (by magic bytes, not extension)."""
    path = Path(path)
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def _sanitize(seq: str, on_invalid: InvalidPolicy, rng: np.random.Generator, name: str) -> str:
    bad = seq.translate(_DROP_VALID)  # one pass over the whole record
    if not bad:
        return seq.upper()
    if on_invalid == "error":
        raise FastaError(
            f"record {name!r} contains invalid character {bad[0]!r}; "
            f"pass on_invalid='skip' or 'random' to accept it"
        )
    if on_invalid == "skip":
        return _INVALID.sub("", seq).upper()
    if on_invalid == "random":
        # One draw per invalid character, in sequence order.
        return _INVALID.sub(lambda _: "ACGT"[rng.integers(0, 4)], seq).upper()
    raise ValueError(f"unknown on_invalid policy {on_invalid!r}")


def parse_fasta(
    fh: IO[str],
    on_invalid: InvalidPolicy = "error",
    seed: int = 0,
) -> Iterator[FastaRecord]:
    """Stream records from an open text handle."""
    rng = np.random.default_rng(seed)
    name: str | None = None
    description = ""
    chunks: list[str] = []
    saw_header = False
    for lineno, raw in enumerate(fh, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if line.startswith(">"):
            saw_header = True
            if name is not None:
                yield FastaRecord(
                    name, description, _sanitize("".join(chunks), on_invalid, rng, name)
                )
            header = line[1:].strip()
            if not header:
                raise FastaError(f"line {lineno}: empty FASTA header")
            parts = header.split(None, 1)
            name = parts[0]
            description = parts[1] if len(parts) > 1 else ""
            chunks = []
        else:
            if not saw_header:
                raise FastaError(
                    f"line {lineno}: sequence data before any '>' header"
                )
            chunks.append(line.strip())
    if name is not None:
        yield FastaRecord(
            name, description, _sanitize("".join(chunks), on_invalid, rng, name)
        )
    elif not saw_header:
        raise FastaError("input contains no FASTA records")


def read_fasta(
    path: str | Path,
    on_invalid: InvalidPolicy = "error",
    seed: int = 0,
) -> list[FastaRecord]:
    """Read all records from a (possibly gzipped) FASTA file."""
    with _open_text(path) as fh:
        return list(parse_fasta(fh, on_invalid=on_invalid, seed=seed))


def read_fasta_str(
    text: str,
    on_invalid: InvalidPolicy = "error",
    seed: int = 0,
) -> list[FastaRecord]:
    """Parse FASTA from an in-memory string (used by the web upload path)."""
    return list(parse_fasta(io.StringIO(text), on_invalid=on_invalid, seed=seed))


def write_fasta(
    records: Sequence[FastaRecord],
    path: str | Path,
    line_width: int = 70,
    compress: bool = False,
) -> None:
    """Write records, wrapping sequences at ``line_width`` columns."""
    if line_width < 1:
        raise ValueError("line_width must be >= 1")
    opener = gzip.open if compress else open
    with opener(path, "wt") as fh:  # type: ignore[operator]
        for rec in records:
            header = f">{rec.name}"
            if rec.description:
                header += f" {rec.description}"
            fh.write(header + "\n")
            seq = rec.sequence
            for i in range(0, len(seq), line_width):
                fh.write(seq[i : i + line_width] + "\n")


def validate_record(rec: FastaRecord) -> None:
    """Raise :class:`FastaError` unless the record indexes cleanly."""
    if not rec.sequence:
        raise FastaError(f"record {rec.name!r} has an empty sequence")
    if not is_valid(rec.sequence):
        raise FastaError(f"record {rec.name!r} contains non-ACGTU characters")
