"""DNA alphabet handling: 2-bit codes, complements, validation.

BWaveR optimizes its structures for alphabets of ``2**N`` symbols, the
genomic alphabet ``{A, C, G, T}`` (or ``U`` for RNA) being the motivating
case.  This module centralizes the character↔code mapping so every other
subsystem (BWT construction, wavelet tree, query packing, FASTA parsing)
agrees on it:

===========  ====
character    code
===========  ====
``A``        0
``C``        1
``G``        2
``T``/``U``  3
===========  ====

Codes are lexicographic, so integer comparisons on code arrays match
string comparisons on the underlying sequences — a property the suffix
array builders rely on.  The sentinel ``$`` is *not* part of the alphabet
(the paper stores its BWT position separately); where an integer code for
it is needed internally, builders use ``-1`` or ``sigma`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

#: The DNA alphabet in lexicographic (= code) order.
DNA_ALPHABET = ("A", "C", "G", "T")
SIGMA = 4

#: Character that terminates the text in Burrows-Wheeler constructions.
SENTINEL = "$"

_CHAR_TO_CODE = np.full(256, -1, dtype=np.int8)
for _i, _ch in enumerate(DNA_ALPHABET):
    _CHAR_TO_CODE[ord(_ch)] = _i
    _CHAR_TO_CODE[ord(_ch.lower())] = _i
_CHAR_TO_CODE[ord("U")] = 3  # RNA uracil maps with thymine
_CHAR_TO_CODE[ord("u")] = 3

_CODE_TO_CHAR = np.frombuffer(b"ACGT", dtype=np.uint8)

_COMPLEMENT_CHAR = np.arange(256, dtype=np.uint8)
for _a, _b in (("A", "T"), ("C", "G"), ("G", "C"), ("T", "A"), ("U", "A"),
               ("a", "t"), ("c", "g"), ("g", "c"), ("t", "a"), ("u", "a")):
    _COMPLEMENT_CHAR[ord(_a)] = ord(_b)


class AlphabetError(ValueError):
    """Raised when a sequence contains characters outside ``{A,C,G,T,U}``."""


def encode(seq: str | bytes) -> np.ndarray:
    """Map a DNA string to 2-bit codes (uint8 array).

    Case-insensitive; ``U`` is accepted as ``T``.  Raises
    :class:`AlphabetError` on any other character (including ``N`` — the
    read simulator and reference generator never emit ambiguity codes, and
    the FASTA reader offers a policy hook for them).
    """
    if isinstance(seq, str):
        raw = seq.encode("ascii", errors="replace")
    else:
        raw = bytes(seq)
    arr = np.frombuffer(raw, dtype=np.uint8)
    codes = _CHAR_TO_CODE[arr]
    if codes.size and codes.min(initial=0) < 0:
        bad_idx = int(np.argmax(codes < 0))
        bad = chr(arr[bad_idx])
        raise AlphabetError(
            f"invalid DNA character {bad!r} at position {bad_idx}"
        )
    return codes.astype(np.uint8)


def decode(codes: np.ndarray) -> str:
    """Inverse of :func:`encode` (uppercase output)."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() > 3):
        raise AlphabetError("codes must lie in [0, 3]")
    return _CODE_TO_CHAR[codes.astype(np.intp)].tobytes().decode("ascii")


def reverse_complement(seq: str) -> str:
    """Reverse complement of a DNA string (the strand the paper also maps).

    ``U`` complements to ``A`` like ``T`` does, so a U-spelled read's
    reverse strand is the same pattern as its T-spelled twin's.
    """
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    comp = _COMPLEMENT_CHAR[raw]
    bad = comp == raw
    # Characters with no complement mapping are only self-mapped ones that
    # are not valid bases; validate through encode for a clear error.
    if np.any(bad):
        encode(seq)  # raises AlphabetError with position info if invalid
    return comp[::-1].tobytes().decode("ascii")


@dataclass(frozen=True)
class EncodedBatch:
    """A batch of DNA strings encoded with one lookup.

    ``codes`` holds every string's codes back to back (``-1`` where a
    character is outside the alphabet); string ``i`` is
    ``codes[offsets[i]:offsets[i + 1]]`` and ``valid[i]`` says whether it
    encoded cleanly.  With ``both_strands`` the batch stands for its
    strings followed by their reverse complements — the mapper's
    two-strand query set — without building a single complement string.
    """

    codes: np.ndarray
    offsets: np.ndarray
    valid: np.ndarray
    both_strands: bool = False

    def __len__(self) -> int:
        return self.valid.size

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def with_reverse_complements(self) -> "EncodedBatch":
        return replace(self, both_strands=True)

    def take(self, rows: np.ndarray) -> "EncodedBatch":
        """The strings at ``rows``, re-packed back to back."""
        codes, offsets = take_segments(self.codes, self.offsets, rows)
        return replace(self, codes=codes, offsets=offsets, valid=self.valid[rows])

    def step_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mat, lengths)`` for backward search, one row per pattern.

        Column ``t`` of a row is the code consumed at search step ``t``
        (patterns are consumed right to left), ``-1`` past the pattern's
        end.  A reverse complement consumes ``3 - code`` of its string's
        codes left to right, so its rows read the same codes unreversed.
        """
        lengths = self.lengths
        width = int(lengths.max(initial=0))
        if lengths.size and lengths.min() == width:
            # Equal lengths (the usual read batch): the codes reshape into
            # the matrix, a forward row being its string reversed.
            first = int(self.offsets[0])
            rows = self.codes[first : first + lengths.size * width]
            rows = rows.reshape(lengths.size, width)
            if not self.both_strands:
                return rows[:, ::-1], lengths
            return np.concatenate([rows[:, ::-1], 3 - rows]), np.concatenate([lengths, lengths])
        t = np.arange(width, dtype=np.int64)
        live = t < lengths[:, None]
        starts = self.offsets[:-1, None]
        fwd = np.where(live, starts + lengths[:, None] - 1 - t, 0)
        mat = np.where(live, self.codes[fwd], -1)
        if not self.both_strands:
            return mat, lengths
        rc = np.where(live, 3 - self.codes[np.where(live, starts + t, 0)], -1)
        return np.concatenate([mat, rc]), np.concatenate([lengths, lengths])


def take_segments(
    values: np.ndarray, offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather segments ``rows`` of a flat array with ``offsets``.

    Segment ``i`` of ``values`` is ``values[offsets[i]:offsets[i + 1]]``;
    returns the chosen segments back to back and their new offsets.
    """
    rows = np.asarray(rows, dtype=np.int64)
    lengths = offsets[rows + 1] - offsets[rows]
    new_offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_offsets[1:])
    src = np.arange(new_offsets[-1], dtype=np.int64) + np.repeat(
        offsets[rows] - new_offsets[:-1], lengths
    )
    return values[src], new_offsets


def encode_batch(seqs: Sequence[str]) -> EncodedBatch:
    """Encode many strings at once: one join, one table lookup, and
    per-string validity from one segmented count of the bad codes."""
    n = len(seqs)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, seqs), dtype=np.int64, count=n), out=offsets[1:])
    raw = "".join(seqs).encode("ascii", errors="replace")
    codes = _CHAR_TO_CODE[np.frombuffer(raw, dtype=np.uint8)]
    bad = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(codes < 0, out=bad[1:])
    valid = bad[offsets[1:]] == bad[offsets[:-1]]
    return EncodedBatch(codes=codes, offsets=offsets, valid=valid)


def is_valid(seq: str) -> bool:
    """True when every character encodes (A/C/G/T/U, any case)."""
    try:
        encode(seq)
        return True
    except AlphabetError:
        return False


def random_sequence(length: int, rng: np.random.Generator, gc_content: float = 0.5) -> str:
    """Random DNA string with the requested GC fraction.

    Used by tests and by :mod:`repro.io.refgen`'s background model.
    """
    if not 0.0 <= gc_content <= 1.0:
        raise ValueError("gc_content must lie in [0, 1]")
    at = (1.0 - gc_content) / 2.0
    gc = gc_content / 2.0
    codes = rng.choice(4, size=length, p=[at, gc, gc, at]).astype(np.uint8)
    return decode(codes)


def gc_fraction(seq: str) -> float:
    """Fraction of G/C bases in a sequence (0 for the empty string)."""
    if not seq:
        return 0.0
    codes = encode(seq)
    return float(np.count_nonzero((codes == 1) | (codes == 2)) / codes.size)
