"""Suffix-array oracles (paper §III-A, Eq. 1-3).

The index builder sorts suffixes in its own bounded-memory stages
(:mod:`repro.index.build_stream`).  This module is the independent
reference they are checked against:

:func:`suffix_array`
    The linear-time SA-IS algorithm (induced sorting), with type
    classification, LMS detection and naming vectorized in numpy — the
    asymptotically optimal construction production indexers use.  The
    baselines, the bench harness and :func:`repro.sequence.bwt.bwt_from_codes`
    use it.
:func:`naive_suffix_array`
    Direct sort of the suffixes — O(n² log n).  Trivially correct; the
    oracle SA-IS itself is tested against on small inputs.

Both operate on the 2-bit code arrays of :mod:`repro.sequence.alphabet`
and return the suffix array of ``text + '$'`` where the sentinel is
lexicographically smallest, exactly the convention of the paper's BWT
construction (its step 1).  The result has length ``n + 1`` and always
starts with ``SA[0] == n`` (the sentinel suffix).
"""

from __future__ import annotations

import numpy as np


def _with_sentinel(codes: np.ndarray) -> np.ndarray:
    """``codes + 1`` followed by the sentinel 0, after checking them."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise ValueError("codes must be one-dimensional")
    if codes.size and codes.min() < 0:
        raise ValueError("symbol codes must be non-negative")
    return np.concatenate([codes + 1, [0]])


def suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array of ``codes + [$]`` with ``$`` smallest, by SA-IS.

    ``codes`` are integer symbol codes, each ``>= 0`` (DNA codes are
    ``0..3``).
    """
    s = _with_sentinel(codes)
    return _sais_numpy(s, list(range(-1, s.size + 1)))


def naive_suffix_array(codes: np.ndarray) -> np.ndarray:
    """:func:`suffix_array` by sorting the suffixes themselves."""
    seq = _with_sentinel(codes).tolist()
    order = sorted(range(len(seq)), key=lambda i: seq[i:])
    return np.asarray(order, dtype=np.int64)


# --------------------------------------------------------------------------
# SA-IS (Nong, Zhang & Chan, 2009) — numpy-accelerated construction.
# --------------------------------------------------------------------------


def _sais_numpy(s: np.ndarray, ints: list[int]) -> np.ndarray:
    """SA-IS of ``s`` (which ends with a unique, smallest sentinel 0).

    Type classification, LMS detection, and LMS-substring naming are
    fully vectorized; only the three induced-sorting sweeps remain
    scalar Python loops (they are inherently sequential — each placement
    depends on entries placed earlier in the same sweep — and run
    fastest over plain lists, so the arrays are converted once per
    recursion level for exactly that part).  ``ints[i + 1] == i`` for
    every row ``-1 <= i <= len(s)``: the sweeps' ints, made once.
    """
    s = np.asarray(s, dtype=np.int64)
    n = s.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    # 1. S/L classification.  t[i] compares s[i] against the next position
    # where adjacent symbols differ: within an equal run the type is that
    # of the run's last element, and the final position is S by definition.
    ne = np.empty(n, dtype=bool)
    ne[:-1] = s[:-1] != s[1:]
    ne[-1] = True
    idx = np.arange(n, dtype=np.int64)
    nxt = np.minimum.accumulate(np.where(ne, idx, n - 1)[::-1])[::-1]
    cmp = np.empty(n, dtype=bool)
    cmp[:-1] = s[:-1] < s[1:]
    cmp[-1] = True
    t = cmp[nxt]
    # 2. LMS positions: S-type preceded by L-type.
    lms = np.zeros(n, dtype=bool)
    lms[1:] = t[1:] & ~t[:-1]
    lms_positions = np.flatnonzero(lms)
    sigma = int(s.max()) + 1
    counts = np.bincount(s, minlength=sigma).tolist()
    t_list = t.tolist()
    s_list = s.tolist()
    # 3. First induction from the (unsorted) LMS positions.
    sa = np.array(
        _induce(s_list, t_list, counts, sigma, lms_positions.tolist(), ints),
        dtype=np.int64,
    )
    # 4. Name LMS substrings in their induced order — vectorized ragged
    # comparison of adjacent pairs (both symbols and types; substrings
    # span up to and including the next LMS).
    lms_sorted = sa[lms[sa]]
    lms_rank = np.empty(n, dtype=np.int64)
    lms_rank[lms_positions] = np.arange(lms_positions.size, dtype=np.int64)
    lms_len = np.diff(lms_positions, append=n - 1) + 1
    n_pairs = lms_sorted.size - 1
    equal = np.zeros(n_pairs, dtype=bool)
    prev, cur = lms_sorted[:-1], lms_sorted[1:]
    maybe = lms_len[lms_rank[prev]] == lms_len[lms_rank[cur]]
    cand = np.flatnonzero(maybe)
    if cand.size:
        seg_len = lms_len[lms_rank[prev[cand]]]
        seg_start = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
        within = np.arange(int(seg_len.sum()), dtype=np.int64) - np.repeat(
            seg_start, seg_len
        )
        gp = np.repeat(prev[cand], seg_len) + within
        gc = np.repeat(cur[cand], seg_len) + within
        elem_eq = (s[gp] == s[gc]) & (t[gp] == t[gc])
        equal[cand] = np.logical_and.reduceat(elem_eq, seg_start)
    names_sorted = np.concatenate(([0], np.cumsum(~equal)))
    current = int(names_sorted[-1]) if names_sorted.size else 0
    names = np.empty(n, dtype=np.int64)
    names[lms_sorted] = names_sorted
    reduced = names[lms_positions]
    # 5. Recurse if LMS names are not yet unique.
    if current + 1 == lms_positions.size:
        lms_order = np.empty(lms_positions.size, dtype=np.int64)
        lms_order[reduced] = lms_positions
    else:
        lms_order = lms_positions[_sais_numpy(reduced, ints)]
    # 6. Final induction from the fully sorted LMS suffixes.
    return np.array(
        _induce(s_list, t_list, counts, sigma, lms_order.tolist(), ints),
        dtype=np.int64,
    )


def _induce(
    s: list[int],
    t: list[bool],
    counts: list[int],
    sigma: int,
    lms_order: list[int],
    ints: list[int],
) -> list[int]:
    """The three induced-sorting sweeps of SA-IS."""
    n = len(s)
    sa = [-1] * n
    # ``i - 1`` and ``h + 1`` are looked up in ``ints`` instead of being
    # computed, so the sweeps create no int objects: traced allocations
    # (the peak-memory measurements) would otherwise slow them ~20x.
    minus1 = ints
    plus1 = ints[2:]
    # Place LMS suffixes at their buckets' tails, reversed so earlier
    # entries end up closer to the tail.
    tails = _bucket_tails(counts, sigma)
    for i in reversed(lms_order):
        ch = s[i]
        sa[tails[ch]] = i
        tails[ch] = minus1[tails[ch]]
    # Induce L-type from left to right.  A list iterator reads live, so
    # it visits the entries placed ahead of it.
    heads = [0] * sigma
    total = 0
    for ch in range(sigma):
        heads[ch] = total
        total += counts[ch]
    for i in sa:
        if i > 0:
            p = minus1[i]
            if not t[p]:
                ch = s[p]
                sa[heads[ch]] = p
                heads[ch] = plus1[heads[ch]]
    # Induce S-type from right to left.
    tails = _bucket_tails(counts, sigma)
    for i in reversed(sa):
        if i > 0:
            p = minus1[i]
            if t[p]:
                ch = s[p]
                sa[tails[ch]] = p
                tails[ch] = minus1[tails[ch]]
    return sa


def _bucket_tails(counts: list[int], sigma: int) -> list[int]:
    tails = [0] * sigma
    total = 0
    for ch in range(sigma):
        total += counts[ch]
        tails[ch] = total - 1
    return tails


# --------------------------------------------------------------------------
# Verification helpers (used by tests and by paranoid pipeline modes).
# --------------------------------------------------------------------------

def verify_suffix_array(codes: np.ndarray, sa: np.ndarray, sample: int | None = None,
                        rng: np.random.Generator | None = None) -> bool:
    """Check Eq. (1): consecutive SA entries name increasing suffixes.

    Compares all adjacent pairs when ``sample`` is None, otherwise a random
    subset (for large inputs).  Also checks that ``sa`` is a permutation of
    ``0..n``.
    """
    codes = np.asarray(codes, dtype=np.int64)
    sa = np.asarray(sa, dtype=np.int64)
    n = codes.size
    if sa.size != n + 1:
        return False
    if not np.array_equal(np.sort(sa), np.arange(n + 1)):
        return False
    s = np.concatenate([codes + 1, [0]])
    pairs = range(sa.size - 1)
    if sample is not None and sa.size - 1 > sample:
        rng = rng if rng is not None else np.random.default_rng(0)
        pairs = rng.choice(sa.size - 1, size=sample, replace=False)
    seq = s.tolist()
    for i in pairs:
        a, b = int(sa[i]), int(sa[i + 1])
        if not seq[a:] < seq[b:]:
            return False
    return True


def rank_array(sa: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``rank[sa[i]] == i``."""
    sa = np.asarray(sa, dtype=np.int64)
    rank = np.empty_like(sa)
    rank[sa] = np.arange(sa.size, dtype=np.int64)
    return rank


def lcp_array(codes: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Longest-common-prefix array (Kasai's algorithm), for diagnostics.

    ``lcp[i]`` is the LCP length of the suffixes at ``sa[i-1]`` and
    ``sa[i]``; ``lcp[0] == 0``.  Used by the reference generator's repeat
    statistics and by tests as an independent sortedness witness
    (``lcp[i] < n`` and mismatching characters must be increasing).
    """
    codes = np.asarray(codes, dtype=np.int64)
    s = np.concatenate([codes + 1, [0]])
    n = s.size
    sa = np.asarray(sa, dtype=np.int64)
    rank = rank_array(sa)
    lcp = np.zeros(n, dtype=np.int64)
    h = 0
    for i in range(n):
        r = rank[i]
        if r > 0:
            j = sa[r - 1]
            while i + h < n and j + h < n and s[i + h] == s[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp
