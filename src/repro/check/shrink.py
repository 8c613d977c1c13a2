"""Greedy counterexample shrinking (ddmin-lite).

When a differential check finds a mismatch, the raw failing input is a
random text/pattern/bit-vector of arbitrary size — correct but useless to
a human.  The shrinkers here reduce it to a (locally) minimal case that
still fails, by repeatedly deleting chunks while the caller-supplied
predicate keeps returning ``True`` ("still reproduces").

This is the classic delta-debugging loop with halving granularity, bounded
by a predicate-call budget so a pathological predicate (e.g. one that
rebuilds an index per probe) cannot stall a selfcheck run.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

S = TypeVar("S", str, list)

#: Default cap on predicate invocations per shrink.
DEFAULT_BUDGET = 400


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _shrink_seq(seq: S, fails: Callable[[S], bool], budget: _Budget, min_len: int = 0) -> S:
    """Greedy chunk deletion: halving granularity down to single items."""
    changed = True
    while changed and budget.left > 0:
        changed = False
        chunk = max(1, len(seq) // 2)
        while chunk >= 1:
            i = 0
            while i < len(seq) and len(seq) > min_len:
                cand = seq[:i] + seq[i + chunk :]
                if len(cand) >= min_len and budget.spend() and fails(cand):
                    seq = cand
                    changed = True
                else:
                    i += chunk
                if budget.left <= 0:
                    return seq
            chunk //= 2
    return seq


def shrink_string(s: str, fails: Callable[[str], bool], budget: int = DEFAULT_BUDGET) -> str:
    """Smallest substring-by-deletion of ``s`` for which ``fails`` holds."""
    return _shrink_seq(s, fails, _Budget(budget))


def shrink_list(items: list, fails: Callable[[list], bool], budget: int = DEFAULT_BUDGET) -> list:
    """Smallest sublist of ``items`` for which ``fails`` holds."""
    return _shrink_seq(list(items), fails, _Budget(budget))


def shrink_bits(
    bits: np.ndarray, fails: Callable[[np.ndarray], bool], budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Shrink a 0/1 array: chunk deletion, then sparsification.

    After length reduction, tries flipping remaining ones to zeros — a
    sparser vector of the same length is easier to reason about in an RRR
    counterexample (fewer classes involved).
    """
    b = _Budget(budget)
    as_list = list(np.asarray(bits, dtype=np.uint8).tolist())
    as_list = _shrink_seq(as_list, lambda xs: fails(np.array(xs, dtype=np.uint8)), b, min_len=1)
    arr = np.array(as_list, dtype=np.uint8)
    for i in np.flatnonzero(arr).tolist():
        if b.left <= 0:
            break
        cand = arr.copy()
        cand[i] = 0
        if b.spend() and fails(cand):
            arr = cand
    return arr
