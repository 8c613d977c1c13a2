"""The differential harness itself: clean runs, corpus replay, and the
acceptance property — reintroducing either seed bug must surface as a
shrunk, human-readable counterexample instead of a crash or a pass."""

import dataclasses
import json

import numpy as np
import pytest

from repro.check import PROFILES, SelfCheck, get_check, rng_for
from repro.check.differential import ALL_CHECKS, CHECKS_BY_NAME
from repro.index import fm_index
from repro.mapper import mapper as mapper_mod
from repro.telemetry import Telemetry, get_telemetry, set_telemetry


class TestRegistry:
    def test_names_are_stable(self):
        # Registry order feeds the RNG streams; a silent reshuffle would
        # change every reproduction recipe in the corpus.
        assert [c.name for c in ALL_CHECKS] == [
            "rrr", "wavelet", "fm", "batch", "mapper", "kernel", "flat", "pool",
            "ftab", "coalesce", "router", "locate",
        ]

    def test_get_check_unknown(self):
        with pytest.raises(ValueError, match="unknown check"):
            get_check("nope")


class TestCleanRun:
    def test_two_rounds_pass(self):
        report = SelfCheck(
            seed=0, profile="quick", checks=["rrr", "wavelet", "fm", "batch", "mapper"]
        ).run(2)
        assert report.ok
        assert all(o.rounds == 2 for o in report.outcomes)
        assert "selfcheck: PASS" in report.summary_lines()[-1]

    def test_heavy_checks_gated_by_profile(self):
        report = SelfCheck(seed=0, profile="quick", checks=["kernel", "flat"]).run(5)
        assert report.ok
        # quick profile: heavy_every=5 -> round 0 only.
        assert all(o.rounds == 1 for o in report.outcomes)

    def test_determinism(self):
        a = SelfCheck(seed=7, profile="quick", checks=["rrr"]).run(3)
        b = SelfCheck(seed=7, profile="quick", checks=["rrr"]).run(3)
        assert a.ok and b.ok
        assert [o.rounds for o in a.outcomes] == [o.rounds for o in b.outcomes]


def _reintroduce_empty_pattern_bug(monkeypatch):
    """The seed off-by-one: empty pattern -> [0, n_rows), sentinel row in."""
    orig = fm_index.FMIndex.search

    def buggy(self, pattern):
        codes = self._codes(pattern)
        if codes.size == 0:
            return fm_index.SearchResult(start=0, end=self.n_rows, steps=0)
        return orig(self, pattern)

    monkeypatch.setattr(fm_index.FMIndex, "search", buggy)


def _reintroduce_n_crash_bug(monkeypatch):
    """The seed crash: no alphabet screen, AlphabetError escapes the mapper."""
    monkeypatch.setattr(mapper_mod, "is_valid", lambda s: True)


class TestCatchesSeedBugs:
    def test_empty_pattern_bug_is_found_and_shrunk(self, monkeypatch):
        _reintroduce_empty_pattern_bug(monkeypatch)
        report = SelfCheck(seed=0, profile="quick", checks=["fm"]).run(3)
        assert not report.ok
        cx = report.failures[0]
        # Shrunk to the minimal shape: a 1-base text and the empty pattern.
        assert cx.inputs["patterns"] == [""]
        assert len(cx.inputs["text"]) == 1
        assert "count('')" in cx.expected
        assert "def test_fm_regression" in cx.snippet

    def test_n_crash_bug_is_found_and_shrunk(self, monkeypatch):
        _reintroduce_n_crash_bug(monkeypatch)
        report = SelfCheck(seed=0, profile="quick", checks=["mapper"]).run(3)
        assert not report.ok
        cx = report.failures[0]
        assert len(cx.inputs["text"]) == 1
        assert len(cx.inputs["reads"]) == 1
        assert "FAIL [mapper]" in cx.describe()

    def test_failures_capped_per_check(self, monkeypatch):
        _reintroduce_empty_pattern_bug(monkeypatch)
        report = SelfCheck(seed=0, profile="quick", checks=["fm"]).run(4)
        assert len(report.failures) == 1  # stop after the first shrunk case


class TestCorpus:
    def test_failure_writes_corpus_entry(self, monkeypatch, tmp_path):
        _reintroduce_empty_pattern_bug(monkeypatch)
        sc = SelfCheck(seed=0, profile="quick", checks=["fm"], corpus_dir=tmp_path)
        report = sc.run(2)
        assert len(report.corpus_written) == 1
        doc = json.loads(report.corpus_written[0].read_text())
        assert doc["check"] == "fm"
        assert doc["inputs"]["patterns"] == [""]

    def test_replay_flags_still_broken(self, monkeypatch, tmp_path):
        _reintroduce_empty_pattern_bug(monkeypatch)
        sc = SelfCheck(seed=0, profile="quick", checks=["fm"], corpus_dir=tmp_path)
        sc.run(2)
        replayed = SelfCheck(seed=0, profile="quick").replay(tmp_path)
        assert not replayed.ok  # bug still present -> replay fails

    def test_replay_clean_after_fix(self, tmp_path):
        # Same corpus, unpatched code: the entry replays green.
        (tmp_path / "fm-case.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "check": "fm",
                    "seed": 0,
                    "round": 0,
                    "inputs": {
                        "text": "C",
                        "patterns": [""],
                        "b": 5,
                        "sf": 8,
                        "backend": "rrr",
                    },
                    "expected": "count('') == 1",
                    "actual": "2",
                }
            )
        )
        replayed = SelfCheck(seed=0, profile="quick").replay(tmp_path)
        assert replayed.ok


def test_checked_in_corpus_replays_clean(repo_corpus_dir=None):
    """Every committed counterexample must stay fixed (the whole point)."""
    from pathlib import Path

    corpus = Path(__file__).resolve().parents[1] / "corpus"
    report = SelfCheck(seed=0, profile="quick").replay(corpus)
    assert report.outcomes, "committed corpus should not be empty"
    assert report.ok, "\n".join(
        cx.describe() for cx in report.failures
    )


class TestTelemetry:
    def test_counters_recorded(self):
        tel = Telemetry(enabled=True)
        set_telemetry(tel)
        try:
            SelfCheck(seed=0, profile="quick", checks=["rrr"]).run(2)
            c = tel.metrics.counter(
                "selfcheck_rounds_total",
                "Differential self-check rounds executed",
                labelnames=("check",),
            )
            assert c.value(check="rrr") == 2
        finally:
            set_telemetry(Telemetry(enabled=False))
        assert not get_telemetry().enabled


class TestCrashHandling:
    def test_generator_crash_becomes_counterexample(self):
        def explode(rng, profile):
            raise RuntimeError("boom in generate")

        sc = SelfCheck(seed=0, profile="quick", checks=["rrr"])
        sc.checks = [dataclasses.replace(CHECKS_BY_NAME["rrr"], generate=explode)]
        report = sc.run(1)
        assert not report.ok
        assert "boom in generate" in report.failures[0].actual


# -- one planted bug per check -------------------------------------------------
#
# Each row plants a one-line bug into a check's fast side (never its oracle)
# and demands the harness answer with a shrunk counterexample.  The rows are
# the safety net for the check table itself: a row that stops catching its
# bug means a probe went missing.


def _wrap(monkeypatch, owner, attr, change):
    """Replace ``owner.attr`` by ``change(original)``."""
    monkeypatch.setattr(owner, attr, change(getattr(owner, attr)))


def _plant_rrr(mp):
    from repro.core.rrr import RRRVector

    _wrap(mp, RRRVector, "select1",
          lambda f: lambda self, k: f(self, k) + (k == self.count()))


def _plant_wavelet(mp):
    from repro.core.wavelet_tree import WaveletTree

    _wrap(mp, WaveletTree, "access",
          lambda f: lambda self, i: (f(self, i) + (i == 0)) % 4)


def _plant_batch(mp):
    _wrap(mp, fm_index.FMIndex, "search_batch",
          lambda f: lambda self, pats: (lambda lo, hi, st: (
              lo, hi, np.where(hi > lo, st, 0)))(*f(self, pats)))


def _plant_kernel(mp):
    from repro.fpga import kernel as kernel_mod

    _wrap(mp, kernel_mod, "batch_outcomes",
          lambda f: lambda *a: (lambda outs, hw, sw: ([
              dataclasses.replace(o, rc_start=o.fwd_start, rc_end=o.fwd_end)
              for o in outs], hw, sw))(*f(*a)))


def _plant_flat(mp):
    from repro.sequence.sampled_sa import FullSA

    _wrap(mp, FullSA, "from_arrays", lambda f: lambda meta, arrays: f(
        meta, {"sa": np.roll(arrays["sa"], 1)}))


def _plant_pool(mp):
    from repro.serving.pool import MapperPool

    _wrap(mp, MapperPool, "_shard",
          lambda f: lambda self, reads: f(self, reads)[::-1])


def _plant_ftab(mp):
    from repro.index.ftab import Ftab

    _wrap(mp, Ftab, "lookup",
          lambda f: lambda self, codes: (lambda lo, hi, st: (
              lo, hi, st if hi > lo else self.k))(*f(self, codes)))


def _plant_coalesce(mp):
    from repro.serving import coalescer as coalescer_mod

    _wrap(mp, coalescer_mod, "_renumber",
          lambda f: lambda results, offset: f(results, 0))


def _plant_router(mp):
    from repro.serving.router import ShardCatalog

    mp.setattr(ShardCatalog, "ordinals", property(
        lambda self: {n: -i for i, n in enumerate(self.names)}))


def _plant_locate(mp):
    from repro.sequence.sampled_sa import SampledSA

    # Off by one in the sample index: marked row i answers with sample i - 1.
    _wrap(mp, SampledSA, "from_arrays", lambda f: lambda meta, arrays: f(
        meta, {**arrays, "samples": np.roll(arrays["samples"], 1)}))


QUICK = PROFILES["quick"]
#: ``pool`` runs only under a profile that includes it.
QUICK_POOL = dataclasses.replace(QUICK, name="quick+pool", include_pool=True)

#: (check, planter, profile, rounds, the input list that must have shrunk)
PLANTED = [
    ("rrr", _plant_rrr, QUICK, 3, "bits"),
    ("wavelet", _plant_wavelet, QUICK, 3, "text"),
    ("fm", _reintroduce_empty_pattern_bug, QUICK, 3, "patterns"),
    ("batch", _plant_batch, QUICK, 3, "patterns"),
    ("mapper", _reintroduce_n_crash_bug, QUICK, 3, "reads"),
    ("kernel", _plant_kernel, QUICK, 6, "reads"),
    ("flat", _plant_flat, QUICK, 6, "patterns"),
    ("pool", _plant_pool, QUICK_POOL, 1, "reads"),
    ("ftab", _plant_ftab, QUICK, 6, "patterns"),
    ("coalesce", _plant_coalesce, QUICK, 3, "requests"),
    ("router", _plant_router, QUICK, 6, "reads"),
    ("locate", _plant_locate, QUICK, 3, "patterns"),
]


@pytest.mark.parametrize(
    "name, plant, profile, rounds, key", PLANTED, ids=[row[0] for row in PLANTED]
)
def test_planted_bug_is_caught_and_shrunk(monkeypatch, name, plant, profile, rounds, key):
    _assert_caught_and_shrunk(monkeypatch, name, plant, profile, rounds, key)


def _plant_wavelet_descent(mp):
    from repro.core.wavelet_tree import WaveletTree

    # A batch with one symbol per position ranks each position with its
    # neighbour's symbol; scalar ranks and one-symbol batches stay right.
    _wrap(mp, WaveletTree, "_descend", lambda f: lambda self, sym, p: f(
        self, np.roll(sym, 1) if sym.ndim else sym, p))


def test_planted_batch_descent_bug_is_caught_and_shrunk(monkeypatch):
    """The wavelet row's ``rank_many``/``rank2_many`` probes catch a
    batch descent bug that only mixed-symbol batches show."""
    _assert_caught_and_shrunk(monkeypatch, "wavelet", _plant_wavelet_descent, QUICK, 3, "text")


def _plant_dropped_write_back(mp):
    # Queries that join the step loop from the k-mer table and survive
    # to their last column never write back: they keep the table's
    # interval and step count.  Without a table nothing changes.
    def change(f):
        def advance(self, mat, lengths, ids, t, lo, hi, steps):
            before = lo[ids], hi[ids], steps[ids]
            executed = f(self, mat, lengths, ids, t, lo, hi, steps)
            if t:
                drop = (steps[ids] == lengths[ids]) & (hi[ids] > lo[ids])
                for col, old in zip((lo, hi, steps), before):
                    col[ids[drop]] = old[drop]
            return executed

        return advance

    _wrap(mp, fm_index.FMIndex, "_advance", change)


def test_planted_compacted_write_back_bug_is_caught_and_shrunk(monkeypatch):
    """The batch row's k-mer-table probe catches a compacted-loop bug
    that only table-primed queries show."""
    _assert_caught_and_shrunk(monkeypatch, "batch", _plant_dropped_write_back, QUICK, 3, "patterns")


def _plant_double_rank(mp):
    from repro.core.bwt_structure import BWTStructure
    from repro.index.occ_table import OccTable

    # Every rank call runs twice: right answers, doubled rank work.
    for owner in (BWTStructure, OccTable):
        _wrap(mp, owner, "occ2_many", lambda f: lambda self, *a: (f(self, *a), f(self, *a))[1])


def test_planted_rank_work_bug_is_caught_and_shrunk(monkeypatch):
    """The batch row's count probes catch extra rank work that leaves
    every answer right."""
    _assert_caught_and_shrunk(monkeypatch, "batch", _plant_double_rank, QUICK, 3, "patterns")


def _plant_dropped_tail_correction(mp):
    from repro.index.ftab import Ftab

    # A live k-mer's hi keeps the short suffix that sorts right after
    # its rows: one row too many when the text ends just past it.
    mp.setattr(Ftab, "_tails_at", lambda self, j: 0)


def test_planted_tail_correction_bug_is_caught_and_shrunk(monkeypatch):
    """The ftab row's table-entry probes catch a boundary lookup that
    forgets the text's short suffixes."""
    _assert_caught_and_shrunk(monkeypatch, "ftab", _plant_dropped_tail_correction, QUICK, 6, "patterns")


def _assert_caught_and_shrunk(monkeypatch, name, plant, profile, rounds, key):
    plant(monkeypatch)
    report = SelfCheck(seed=0, profile=profile, checks=[name]).run(rounds)
    assert not report.ok, f"planted {name} bug went unnoticed"
    cx = report.failures[0]
    assert cx.check == name and f"def test_{name}_regression" in cx.snippet
    # Shrunk: smaller than what its round generated, and still failing
    # on the planted code (a crash counts as failing).
    check = get_check(name)
    order = [c.name for c in ALL_CHECKS].index(name)
    raw = check.generate(rng_for(0, cx.round_index, order), profile)
    assert len(cx.inputs[key]) < len(raw[key])
    try:
        still_fails = check.mismatch(cx.inputs) is not None
    except Exception:  # noqa: BLE001 - a crash is the finding itself
        still_fails = True
    assert still_fails
