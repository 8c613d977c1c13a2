"""Pure-Python oracles: the slow, obviously-correct side of every pair.

Each function here defines *what the answer is* for some operation the
succinct stack implements cleverly — naive popcount loops for rank,
direct ``numpy`` counting for wavelet-tree occ, and literal string
scanning for backward search and locate.  The differential runner in
:mod:`repro.check.differential` drives the clever implementations against
these on adversarial inputs; when they disagree, the oracle wins by
definition.

The oracles also encode the repo-wide semantic decisions of DESIGN.md §9:

* the empty pattern occurs once at every text position (``len(text)``
  matches, positions ``0..len(text)-1`` — never the sentinel row);
* matching is case-insensitive with ``U == T`` (exactly what
  :func:`repro.sequence.alphabet.encode` accepts);
* sequences containing any other character (``N``, IUPAC codes, garbage)
  are *invalid*: raw index queries raise, mappers report unmapped with
  ``reason == "invalid_base"``.
"""

from __future__ import annotations

import numpy as np

from ..sequence.alphabet import is_valid, reverse_complement

#: ASCII translation normalizing a sequence the way ``encode`` reads it.
_NORMALIZE = str.maketrans("acgtuU", "ACGTTT")


def normalize(seq: str) -> str:
    """Uppercase with ``U -> T``: the canonical spelling of a sequence."""
    return seq.translate(_NORMALIZE)


# -- binary rank/select -------------------------------------------------------


def naive_rank1(bits: np.ndarray, p: int) -> int:
    """Ones in ``bits[0:p]`` by direct count."""
    return int(np.count_nonzero(np.asarray(bits)[:p]))


def naive_rank0(bits: np.ndarray, p: int) -> int:
    """Zeros in ``bits[0:p]``."""
    return p - naive_rank1(bits, p)


def naive_select1(bits: np.ndarray, k: int) -> int:
    """Position of the ``k``-th set bit (1-based ``k``); raises when absent."""
    ones = np.flatnonzero(np.asarray(bits))
    if k < 1 or k > ones.size:
        raise IndexError(f"select1({k}) out of range [1, {ones.size}]")
    return int(ones[k - 1])


# -- symbol rank (wavelet oracle) --------------------------------------------


def naive_occ(codes: np.ndarray, symbol: int, p: int) -> int:
    """Occurrences of ``symbol`` in ``codes[0:p]`` by direct count."""
    return int(np.count_nonzero(np.asarray(codes)[:p] == symbol))


def naive_count_smaller(codes: np.ndarray, symbol: int) -> int:
    """Symbols strictly smaller than ``symbol`` in the whole sequence."""
    return int(np.count_nonzero(np.asarray(codes) < symbol))


# -- exact-match search -------------------------------------------------------


def oracle_occurrences(text: str, pattern: str) -> list[int] | None:
    """All occurrence positions of ``pattern`` in ``text``, or ``None``
    when the pattern is invalid (contains non-alphabet characters).

    This is the ground truth for ``FMIndex.count``/``locate`` under the
    DESIGN.md §9 semantics, including the empty pattern and patterns
    longer than the text.
    """
    if not is_valid(pattern):
        return None
    t = normalize(text)
    p = normalize(pattern)
    if not p:
        return list(range(len(t)))
    out: list[int] = []
    start = 0
    while True:
        i = t.find(p, start)
        if i < 0:
            return out
        out.append(i)
        start = i + 1


def oracle_mapping(
    text: str, read: str
) -> tuple[list[int], list[int]] | None:
    """Both-strand ground truth for one read: ``(fwd, rc positions)``.

    ``None`` marks an invalid read — the mapper must report it unmapped
    with the ``invalid_base`` reason instead of raising or crashing.
    """
    if not is_valid(read):
        return None
    fwd = oracle_occurrences(text, read)
    rc = oracle_occurrences(text, reverse_complement(normalize(read)))
    assert fwd is not None and rc is not None
    return fwd, rc


def oracle_index(
    text,
    *,
    b: int = 15,
    sf: int = 50,
    backend: str = "rrr",
    locate: str = "full",
    sa_sample_rate: int = 32,
    occ_checkpoint_words: int = 4,
    ftab_k: int | None = None,
    store_sentinel_in_tree: bool = False,
):
    """The index the builder must produce, made without its stages.

    The textbook pipeline, one whole array per step: the SA-IS suffix
    array, :func:`~repro.sequence.bwt.bwt_from_codes`, then
    :class:`~repro.core.bwt_structure.BWTStructure` (or
    :class:`~repro.index.occ_table.OccTable`), :class:`FullSA` or
    :class:`SampledSA`, and :meth:`Ftab.build`.  ``save_index_flat`` of
    it is the reference container for the builder's, byte for byte.  Its
    backend keeps the :class:`~repro.sequence.bwt.BWT` (``backend.bwt``,
    with the SA), and ``store_sentinel_in_tree`` builds the five-symbol
    tree, which the builder does not.
    """
    from ..core.bwt_structure import BWTStructure
    from ..index.fm_index import FMIndex
    from ..index.ftab import Ftab
    from ..index.occ_table import OccTable
    from ..sequence.alphabet import encode
    from ..sequence.bwt import bwt_from_codes
    from ..sequence.sampled_sa import FullSA, SampledSA

    codes = encode(text) if isinstance(text, str) else np.asarray(text, dtype=np.uint8)
    bwt = bwt_from_codes(codes)
    if backend == "rrr":
        struct = BWTStructure(bwt, b=b, sf=sf, store_sentinel_in_tree=store_sentinel_in_tree)
    else:
        struct = OccTable(bwt, checkpoint_words=occ_checkpoint_words)
    if locate == "full":
        loc = FullSA(bwt.sa)
    elif locate == "sampled":
        loc = SampledSA(bwt.sa, k=sa_sample_rate)
    else:
        loc = None
    ftab = Ftab.build(struct, k=ftab_k) if ftab_k is not None else None
    return FMIndex(struct, locate_structure=loc, ftab=ftab)
