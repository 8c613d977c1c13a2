"""Burrows-Wheeler transform over DNA code arrays (paper §III-A).

The BWT is derived from the suffix array rather than by materializing the
(N+1)×(N+1) Burrows-Wheeler matrix: row ``i`` of the sorted matrix begins
with the suffix at ``SA[i]``, so its last character is
``text[SA[i] - 1]`` (or ``$`` when ``SA[i] == 0``).  The sentinel is
carried *outside* the symbol array as :attr:`BWT.dollar_pos` — the exact
optimization the paper applies so the wavelet tree stays a 4-symbol
(two-level) tree.

:func:`inverse_bwt` reconstructs the original text by walking the
last-first (LF) mapping, and is the round-trip oracle used by the tests;
:func:`run_length_stats` and :func:`entropy0` quantify why the BWT of
genomic data compresses well (long runs → low zero-order entropy), the
property §III-B invokes to justify RRR encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .suffix_array import suffix_array


@dataclass(frozen=True)
class BWT:
    """A Burrows-Wheeler transformed sequence.

    Attributes
    ----------
    codes:
        Length ``n + 1`` uint8 array of 2-bit symbol codes.  The entry at
        :attr:`dollar_pos` is a placeholder (0) and must be skipped by
        consumers — the succinct structure never stores it.
    dollar_pos:
        Row of the Burrows-Wheeler matrix whose last column holds ``$``
        (i.e. the position of the sentinel within the BWT string).
    sa:
        The suffix array the transform was derived from (length ``n + 1``),
        kept for building locate structures; ``None`` on a transform
        attached from a container that does not store it (sampled or no
        locate).
    """

    codes: np.ndarray
    dollar_pos: int
    sa: np.ndarray | None = None

    @property
    def length(self) -> int:
        """Length of the BWT string including the sentinel slot."""
        return int(self.codes.size)

    @property
    def text_length(self) -> int:
        """Length of the original text (without sentinel)."""
        return int(self.codes.size) - 1

    def symbols_without_sentinel(self) -> np.ndarray:
        """The BWT symbol codes with the sentinel slot removed.

        This is exactly the sequence the wavelet tree encodes; the
        backward search re-inserts the sentinel's effect through
        :attr:`dollar_pos` arithmetic.
        """
        return np.delete(self.codes, self.dollar_pos)

    def char_string(self) -> str:
        """Human-readable BWT with an explicit ``$`` (for tests/demos)."""
        from .alphabet import decode

        chars = list(decode(self.codes))
        chars[self.dollar_pos] = "$"
        return "".join(chars)


def bwt_from_codes(codes: np.ndarray, sa: np.ndarray | None = None) -> BWT:
    """Compute the BWT of ``codes + '$'``.

    Parameters
    ----------
    codes:
        2-bit DNA codes of the reference text.
    sa:
        Optional precomputed suffix array of ``codes + '$'`` (by default
        the SA-IS oracle :func:`~repro.sequence.suffix_array.suffix_array`
        computes it).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if sa is None:
        sa = suffix_array(codes)
    sa = np.asarray(sa, dtype=np.int64)
    n1 = codes.size + 1
    if sa.size != n1:
        raise ValueError(f"suffix array length {sa.size} != text length + 1 ({n1})")
    dollar_rows = np.flatnonzero(sa == 0)
    if dollar_rows.size != 1:
        raise ValueError("suffix array must contain position 0 exactly once")
    dollar_pos = int(dollar_rows[0])
    if codes.size:
        out = codes[np.where(sa > 0, sa - 1, 0)].astype(np.uint8)
    else:
        out = np.zeros(1, dtype=np.uint8)
    out[dollar_pos] = 0  # placeholder; the sentinel lives in dollar_pos
    return BWT(codes=out, dollar_pos=dollar_pos, sa=sa)


def bwt_from_string(text: str) -> BWT:
    """Convenience wrapper accepting a DNA string."""
    from .alphabet import encode

    return bwt_from_codes(encode(text))


def inverse_bwt(bwt: BWT) -> np.ndarray:
    """Reconstruct the original code array by LF-walking the BWT.

    The LF mapping sends row ``i`` to the row whose suffix is one
    character longer; starting from the row containing ``$`` in the last
    column and walking ``n`` steps recovers the text right to left.
    """
    n1 = bwt.length
    n = n1 - 1
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    # Effective last column with $ treated as smaller than every code.
    sym = bwt.codes.astype(np.int64)
    sym = sym.copy()
    sym[bwt.dollar_pos] = -1
    # Stable sort of the last column gives the first column; the LF map of
    # row i is i's position in that sort (last-first property).
    order = np.argsort(sym, kind="stable")
    lf = np.empty(n1, dtype=np.int64)
    lf[order] = np.arange(n1, dtype=np.int64)
    out = np.zeros(n, dtype=np.uint8)
    # Row 0 is the rotation "$T", whose last column is text[n-1]; each LF
    # step rotates right by one, emitting text right to left.
    row = 0
    for k in range(n - 1, -1, -1):
        if row == bwt.dollar_pos:  # pragma: no cover - walk invariant
            raise AssertionError("LF walk hit the sentinel prematurely")
        out[k] = bwt.codes[row]
        row = int(lf[row])
    if row != bwt.dollar_pos:  # pragma: no cover - walk invariant
        raise AssertionError("LF walk did not terminate at the sentinel row")
    return out


def run_length_stats(bwt: BWT) -> dict[str, float]:
    """Run statistics of the BWT string (sentinel excluded).

    Returns the number of runs, mean run length, and the longest run —
    the quantities that make BWT output low-entropy and RRR-friendly.
    """
    sym = bwt.symbols_without_sentinel()
    if sym.size == 0:
        return {"runs": 0, "mean_run": 0.0, "max_run": 0}
    change = np.flatnonzero(np.diff(sym.astype(np.int64)) != 0)
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change + 1, [sym.size]))
    lengths = ends - starts
    return {
        "runs": int(lengths.size),
        "mean_run": float(lengths.mean()),
        "max_run": int(lengths.max()),
    }


def entropy0(symbols: np.ndarray, sigma: int = 4) -> float:
    """Zero-order empirical entropy H0 in bits per symbol."""
    symbols = np.asarray(symbols)
    n = symbols.size
    if n == 0:
        return 0.0
    counts = np.bincount(symbols.astype(np.int64), minlength=sigma)
    probs = counts[counts > 0] / n
    return float(-(probs * np.log2(probs)).sum())


def count_array(codes: np.ndarray, sigma: int = 4) -> np.ndarray:
    """The FM-index ``C`` array over ``codes + '$'``.

    ``C[a]`` = number of characters in the text (including ``$``) that are
    lexicographically smaller than symbol ``a``; with the sentinel smallest
    this is ``1 + sum(counts[:a])``.  Length ``sigma + 1``: the final entry
    is the total ``n + 1`` so ``C[a + 1] - C[a]`` gives symbol counts.
    """
    codes = np.asarray(codes)
    counts = np.bincount(codes.astype(np.int64), minlength=sigma)
    c = np.zeros(sigma + 1, dtype=np.int64)
    c[0] = 1  # the sentinel
    c[1:] = 1 + np.cumsum(counts)
    return c
