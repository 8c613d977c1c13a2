"""The shrinkers must reach (locally) minimal cases and respect budgets."""

import numpy as np

from repro.check.shrink import shrink_bits, shrink_list, shrink_string


def test_shrink_string_to_single_trigger():
    # Failure: contains an 'N' anywhere.
    out = shrink_string("ACGTNACGTACGT", lambda s: "N" in s)
    assert out == "N"


def test_shrink_string_budget_is_respected():
    calls = []

    def fails(s):
        calls.append(s)
        return "N" in s

    shrink_string("N" * 64 + "A" * 64, fails, budget=10)
    assert len(calls) <= 10


def test_shrink_list_keeps_only_trigger():
    out = shrink_list(list(range(20)), lambda xs: 13 in xs)
    assert out == [13]


def test_shrink_bits_deletes_and_sparsifies():
    bits = np.array([1, 1, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
    # Failure: at least one set bit survives.
    out = shrink_bits(bits, lambda a: int(np.count_nonzero(a)) >= 1)
    assert out.size == 1 and int(out[0]) == 1


def test_shrink_preserves_failure():
    # Whatever the shrinkers return must still satisfy the predicate.
    pred = lambda s: s.count("G") >= 2  # noqa: E731
    out = shrink_string("GAGAGAGA", pred)
    assert pred(out)
    assert out == "GG"
