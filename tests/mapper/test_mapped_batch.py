"""The columnar batch-mapping contract: ``Mapper.map_reads`` returns a
:class:`MappedBatch` equal to the scalar oracle, read by read."""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_index
from repro.bench.fixtures import make_dna
from repro.core.counters import CounterScope
from repro.mapper.mapper import Mapper
from repro.mapper.results import (
    REASON_INVALID_BASE,
    MappedBatch,
    write_hits_tsv,
)
from repro.mapper.stream import map_stream
from repro.sequence.alphabet import encode_batch, reverse_complement

TEXT = make_dna(400, seed=11)
FTAB_K = 4

_INDEXES: dict[str, object] = {}


def _index(kind: str):
    """Module-cached indexes: full SA, sampled SA, no locate; +/- ftab."""
    if kind not in _INDEXES:
        locate = {"full": "full", "full_ftab": "full", "sampled_ftab": "sampled",
                  "sampled": "sampled", "none_ftab": "none"}[kind]
        ftab_k = FTAB_K if kind.endswith("_ftab") else None
        _INDEXES[kind], _ = build_index(
            TEXT, b=15, sf=8, locate=locate, sa_sample_rate=5, ftab_k=ftab_k,
        )
    return _INDEXES[kind]


KINDS = ["full", "full_ftab", "sampled", "sampled_ftab", "none_ftab"]


def _mapper(kind: str) -> Mapper:
    return Mapper(_index(kind), locate=not kind.startswith("none"))


@st.composite
def reads(draw):
    """A read: a reference substring (either strand), a random string, or
    an edge case, then optionally lowercased, U-spelled or N-contaminated."""
    kind = draw(st.sampled_from(["sub", "rc", "random", "edge"]))
    if kind in ("sub", "rc"):
        start = draw(st.integers(0, len(TEXT) - 1))
        length = draw(st.integers(1, 40))
        s = TEXT[start : start + length]
        if kind == "rc":
            s = reverse_complement(s)
    elif kind == "random":
        s = draw(st.text(alphabet="ACGT", min_size=0, max_size=12))
    else:
        s = draw(st.sampled_from(["", "A", "ACG", TEXT, TEXT + "ACGT", "N", "NNNN"]))
    spelling = draw(st.sampled_from(["as_is", "lower", "U", "u", "N", "iupac"]))
    if spelling == "lower":
        s = s.lower()
    elif spelling == "U":
        s = s.replace("T", "U")
    elif spelling == "u":
        s = s.lower().replace("t", "u")
    elif spelling in ("N", "iupac") and s:
        i = draw(st.integers(0, len(s) - 1))
        s = s[:i] + ("N" if spelling == "N" else "R") + s[i + 1 :]
    return s


def _fingerprint(r) -> tuple:
    def pos(h):
        return None if h.positions is None else h.positions.tolist()

    return (
        r.read_id, r.read_name, r.length, r.reason,
        r.forward.interval, r.reverse.interval, pos(r.forward), pos(r.reverse),
    )


class TestEqualsScalarOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=25, deadline=None)
    @given(batch=st.lists(reads(), min_size=0, max_size=24))
    def test_batch_equals_map_read(self, kind, batch):
        mapper = _mapper(kind)
        got = mapper.map_reads(batch)
        want = [mapper.map_read(s, read_id=i) for i, s in enumerate(batch)]
        assert isinstance(got, MappedBatch)
        assert [_fingerprint(r) for r in got] == [_fingerprint(r) for r in want]
        assert got == want and want == got

    def test_names_and_reasons(self):
        mapper = _mapper("full_ftab")
        batch = [TEXT[5:30], "ACGNT", "", TEXT[100:140].lower().replace("t", "u")]
        names = ["a", "b", "c", "d"]
        got = mapper.map_reads(batch, names=names)
        assert [r.read_name for r in got] == names
        assert [r.reason for r in got] == [None, REASON_INVALID_BASE, None, None]
        assert got[3].mapped and got[1].forward.count == 0
        assert got == mapper.map_reads(batch, names=names, batch=False)

    @pytest.mark.parametrize("kind", ["full", "sampled_ftab", "none_ftab"])
    def test_search_counters_match_scalar(self, kind):
        """Logical search counters (queries, steps, ftab lookups, invalid
        reads) are the same whichever path mapped the batch."""
        index = _index(kind)
        mapper = _mapper(kind)
        batch = [TEXT[i : i + 3 + i % 30] for i in range(0, 300, 7)]
        batch += ["", "ACGTN", TEXT[:50].lower(), TEXT[60:90].replace("T", "U")]
        keys = ("queries", "bs_steps", "ftab_lookups", "reads_invalid")
        with CounterScope() as columnar:
            mapper.map_reads(batch)
        with CounterScope() as scalar:
            mapper.map_reads(batch, batch=False)
        assert {k: columnar.delta.get(k, 0) for k in keys} == {
            k: scalar.delta.get(k, 0) for k in keys
        }
        assert columnar.delta["reads_invalid"] == 1

    def test_rank_counters_match_list_search(self):
        """The encoded both-strand search charges the rank structures
        exactly what searching the strings and their complement strings
        charged."""
        index = _index("full_ftab")
        batch = [TEXT[i : i + 20 + i % 17] for i in range(0, 350, 11)] + ["ACGU", "gattaca"]
        with CounterScope() as listed:
            want = index.search_batch(batch + [reverse_complement(s) for s in batch])
        with CounterScope() as encoded:
            got = index.search_batch(encode_batch(batch).with_reverse_complements())
        assert listed.delta == encoded.delta
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


class TestUracilComplement:
    def test_reverse_strand_of_a_u_spelled_read_maps(self):
        """The reverse complement of a reference 30-mer, spelled with U,
        maps once on the reverse strand through every path."""
        mapper = _mapper("full_ftab")
        read = reverse_complement(TEXT[200:230]).replace("T", "U")
        scalar = mapper.map_read(read)
        batch = mapper.map_reads([read])[0]
        for r in (scalar, batch):
            assert r.reverse.count == 1
            assert r.reverse.positions.tolist() == [200]


class TestBatchSemantics:
    def _batch(self) -> MappedBatch:
        batch = [TEXT[i : i + 25] for i in range(0, 200, 20)] + ["NNN", ""]
        return _mapper("sampled_ftab").map_reads(batch)

    def test_pickle_round_trip(self):
        mb = self._batch()
        back = pickle.loads(pickle.dumps(mb))
        assert isinstance(back, MappedBatch)
        assert back == mb
        assert back.n_mapped == mb.n_mapped

    def test_slices_keep_ids(self):
        mb = self._batch()
        whole = list(mb)
        assert mb[3:7] == whole[3:7]
        assert mb[::3] == whole[::3]
        assert mb[-1] == whole[-1]
        with pytest.raises(IndexError):
            mb[len(mb)]

    def test_take_and_concat_renumber_from_zero(self):
        mb = self._batch()
        rows = np.array([5, 0, 11, 2])
        taken = mb.take(rows)
        assert [r.read_id for r in taken] == [0, 1, 2, 3]
        assert [_fingerprint(r)[2:] for r in taken] == [
            _fingerprint(mb[i])[2:] for i in rows
        ]
        joined = MappedBatch.concat([mb[:4], mb[4:]])
        assert joined == mb
        assert len(MappedBatch.concat([])) == 0

    def test_tsv_fast_path_matches_object_path(self):
        for kind in ("full_ftab", "none_ftab"):
            batch = [TEXT[i : i + 9] for i in range(0, 400, 13)] + ["ACGN", ""]
            mb = _mapper(kind).map_reads(batch).with_id_base(40)
            fast, slow = io.StringIO(), io.StringIO()
            assert write_hits_tsv(mb, fast) == write_hits_tsv(list(mb), slow) == len(batch)
            assert fast.getvalue() == slow.getvalue()
            assert "read40\t" in fast.getvalue()

    def test_map_stream_ids_and_names_are_stream_global(self):
        index = _index("full")
        batch = [TEXT[i : i + 15] for i in range(0, 300, 9)] + ["ACGTN", ""]
        streamed = [
            r for part in map_stream(index, iter(batch), batch_size=4, locate=True)
            for r in part
        ]
        want = Mapper(index).map_reads(batch)
        assert streamed == list(want)
        assert [r.read_name for r in streamed] == [f"read{i}" for i in range(len(batch))]
