"""Stacked indexes: several FM-indexes through one step loop and one
locate walk, bit-identical to mapping each alone."""

import numpy as np
import pytest

from repro.check.oracles import oracle_index
from repro.core.counters import CounterScope
from repro.index.builder import build_index
from repro.index.flat import load_index_flat, save_index_flat
from repro.index.ftab import build_ftab
from repro.index.stacked import StackedIndex, stack_groups, stack_key
from repro.mapper.mapper import Mapper, StackedMapper
from repro.sequence.alphabet import reverse_complement


def make_seq(n, seed):
    rng = np.random.default_rng(seed)
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


SEQS = [make_seq(n, seed) for n, seed in ((1500, 1), (900, 2), (400, 3), (1200, 4))]


def reads():
    out = []
    for seq in SEQS:
        out += [seq[i : i + 30] for i in range(0, len(seq) - 30, 137)]
        out.append(reverse_complement(seq[50:90]))
    out += ["", "ACGTNNACGT", "A", "ACGT" * 6, "TTTTTTTTTT", SEQS[0][:6], "acgtac"]
    return out


def build(seq, ftab_k=0, store_sentinel_in_tree=False, **opts):
    opts.setdefault("sf", 8)
    if store_sentinel_in_tree:  # the five-symbol tree: oracle pipeline only
        index = oracle_index(seq, b=15, store_sentinel_in_tree=True, **opts)
    else:
        index, _ = build_index(seq, b=15, **opts)
    if ftab_k:
        index.ftab = build_ftab(index.backend, ftab_k)
    return index


SHAPES = {
    "full": dict(locate="full"),
    "sampled": dict(locate="sampled", sa_sample_rate=8),
    "ftab": dict(locate="sampled", sa_sample_rate=8, ftab_k=4),
    "full-ftab": dict(locate="full", ftab_k=3),
}


def assert_batches_equal(got, want):
    assert got == want
    for g, w in zip(got, want):
        for col in ("lengths", "valid", "lo", "hi", "steps", "positions", "offsets"):
            assert np.array_equal(getattr(g, col), getattr(w, col)), col


class TestStackKey:
    def test_grouping_rule(self):
        seq = SEQS[2]
        indexes = [
            build(seq, locate="full"),  # 0
            build(seq, locate="sampled", sa_sample_rate=8),  # 1
            build(seq, locate="full"),  # 2: stacks with 0
            build(seq, locate="full", sf=4),  # 3: another sf
            build(seq, locate="sampled", sa_sample_rate=16),  # 4: another k
            build(seq, locate="full", ftab_k=3),  # 5: an ftab
            build(seq, locate="full", backend="occ"),  # 6: OccTable
            build(seq, locate="full", store_sentinel_in_tree=True),  # 7: sigma 5
            build(seq, locate="full", backend="occ"),  # 8: never stacks
            build(seq, locate="sampled", sa_sample_rate=8),  # 9: stacks with 1
        ]
        assert stack_key(indexes[6]) is None and stack_key(indexes[7]) is None
        assert stack_groups(indexes) == [[0, 2], [1, 9], [3], [4], [5], [6], [7], [8]]

    def test_ftab_off_changes_the_key(self):
        index = build(SEQS[2], locate="full", ftab_k=3)
        on = stack_key(index)
        index.use_ftab = False
        assert stack_key(index) != on
        assert stack_key(index) == stack_key(build(SEQS[2], locate="full"))

    def test_unstackable_indexes_refused(self):
        with pytest.raises(ValueError, match="do not stack"):
            StackedIndex([build(SEQS[0]), build(SEQS[1], sf=4)])
        with pytest.raises(ValueError, match="do not stack"):
            StackedIndex([build(SEQS[0], backend="occ"), build(SEQS[1], backend="occ")])


class TestStackedParity:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equals_each_index_alone(self, shape):
        opts = dict(SHAPES[shape])
        indexes = [build(seq, **opts) for seq in SEQS]
        want = [Mapper(ix).map_reads(reads()) for ix in indexes]
        mapper = StackedMapper(indexes)
        assert len(mapper.groups) == 1
        assert_batches_equal(mapper.map_reads(reads()), want)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_counter_delta_is_the_sum_of_the_per_index_deltas(self, shape):
        opts = dict(SHAPES[shape])
        indexes = [build(seq, **opts) for seq in SEQS]
        mappers = [Mapper(ix) for ix in indexes]
        stacked = StackedMapper(indexes)
        with CounterScope() as alone:
            for m in mappers:
                m.map_reads(reads())
        with CounterScope() as together:
            stacked.map_reads(reads())
        assert together.delta == alone.delta
        assert together.delta["bs_steps"] > 0 and together.delta["wt_ranks"] > 0

    def test_search_batch_is_segment_major(self):
        indexes = [build(seq, locate="full", ftab_k=3) for seq in SEQS]
        patterns = [r.upper() for r in reads() if set(r.upper()) <= set("ACGT")]
        stacked = StackedIndex(indexes)
        lo, hi, steps = stacked.search_batch(patterns)
        want = [ix.search_batch(patterns) for ix in indexes]
        for got, k in zip((lo, hi, steps), range(3)):
            assert np.array_equal(got, np.concatenate([w[k] for w in want]))

    def test_mixed_indexes_map_in_their_groups(self):
        indexes = [
            build(SEQS[0], **SHAPES["ftab"]),
            build(SEQS[1], locate="full", backend="occ"),
            build(SEQS[2], **SHAPES["ftab"]),
            build(SEQS[3], locate="full", store_sentinel_in_tree=True),
            build(SEQS[1], **SHAPES["full"]),
        ]
        mapper = StackedMapper(indexes)
        assert [ids for ids, _ in mapper.groups] == [[0, 2], [1], [3], [4]]
        with CounterScope() as together:
            got = mapper.map_reads(reads())
        with CounterScope() as alone:
            want = [Mapper(ix).map_reads(reads()) for ix in indexes]
        assert_batches_equal(got, want)
        assert together.delta == alone.delta

    def test_zero_copy_containers_stack(self, tmp_path):
        indexes = []
        for i, seq in enumerate(SEQS):
            save_index_flat(build(seq, **SHAPES["ftab"]), tmp_path / f"{i}.bwvr")
            indexes.append(load_index_flat(tmp_path / f"{i}.bwvr"))
        want = [Mapper(ix).map_reads(reads()) for ix in indexes]
        assert_batches_equal(StackedMapper(indexes).map_reads(reads()), want)

    def test_count_only_and_empty_batches(self):
        indexes = [build(seq, **SHAPES["sampled"]) for seq in SEQS]
        got = StackedMapper(indexes).map_reads(reads(), locate=False)
        want = [Mapper(ix, locate=False).map_reads(reads()) for ix in indexes]
        assert_batches_equal(got, want)
        assert all(len(b) == 0 for b in StackedMapper(indexes).map_reads([]))
        invalid = StackedMapper(indexes).map_reads(["NNNN", "ACGTX"])
        assert all(not b.valid.any() and b.n_mapped == 0 for b in invalid)


class TestStackedKernel:
    def test_rank_positions_are_checked_per_segment(self):
        stacked = StackedIndex([build(SEQS[0]), build(SEQS[2])])
        short = int(stacked.backend.n_rows[1])
        # Row n_rows is valid in each segment; one past it is not.
        stacked.backend.occ2_many(np.array([4, 0]), np.array([0, 0]), np.array([short, 1501]))
        with pytest.raises(IndexError):
            stacked.backend.occ2_many(np.array([4]), np.array([0]), np.array([short + 1]))
        with pytest.raises(ValueError, match="alphabet"):
            stacked.backend.occ2_many(np.array([8]), np.array([0]), np.array([1]))

    def test_locate_intervals_are_checked_per_segment(self):
        stacked = StackedIndex([build(SEQS[0], **SHAPES["sampled"]), build(SEQS[2], **SHAPES["sampled"])])
        short = int(stacked.backend.n_rows[1])
        loc, lf = stacked.locate_structure, stacked.backend.lf_many
        with pytest.raises(IndexError):
            loc.locate_batch([0], [short + 1], lf, seg=np.array([1]))
        pos, off = loc.locate_batch([0, 0], [short, short], lf, seg=np.array([1, 0]))
        assert sorted(pos[off[0] : off[1]].tolist()) == list(range(short))


class TestMemberSubsets:
    @pytest.mark.parametrize("shape", ["full", "ftab"])
    def test_subset_equals_those_indexes_alone(self, shape):
        indexes = [build(seq, **SHAPES[shape]) for seq in SEQS]
        mapper = StackedMapper(indexes)
        for members in ([2], [3, 1], [0, 2, 0]):
            with CounterScope() as alone:
                want = [Mapper(indexes[i]).map_reads(reads()) for i in dict.fromkeys(members)]
            with CounterScope() as together:
                got = mapper.map_reads(reads(), members)
            by_index = dict(zip(dict.fromkeys(members), want))
            assert_batches_equal(got, [by_index[i] for i in members])
            assert together.delta == alone.delta

    def test_search_batch_of_listed_segments(self):
        indexes = [build(seq, locate="full", ftab_k=3) for seq in SEQS]
        patterns = [r.upper() for r in reads() if set(r.upper()) <= set("ACGT")]
        stacked = StackedIndex(indexes)
        lo, hi, steps = stacked.search_batch(patterns, segments=[3, 1])
        want = [indexes[i].search_batch(patterns) for i in (3, 1)]
        for got, k in zip((lo, hi, steps), range(3)):
            assert np.array_equal(got, np.concatenate([w[k] for w in want]))
        for bad in ([], [4], [-1]):
            with pytest.raises(IndexError, match="segments"):
                stacked.search_batch(patterns, segments=bad)


class TestNoCopy:
    def test_stacked_locate_keeps_each_part_in_place(self, tmp_path):
        for shape in ("full", "sampled"):
            indexes = []
            for i, seq in enumerate(SEQS):
                save_index_flat(build(seq, **SHAPES[shape]), tmp_path / f"{shape}{i}.bwvr")
                indexes.append(load_index_flat(tmp_path / f"{shape}{i}.bwvr"))
            loc = StackedIndex(indexes).locate_structure
            own = [
                ix.locate_structure.sa if shape == "full" else ix.locate_structure.samples
                for ix in indexes
            ]
            assert all(part is arr for part, arr in zip(loc.parts, own))


class TestIndexShelf:
    def test_one_stack_per_held_set(self):
        from repro.serving.pool import IndexShelf

        built = {name: build(seq, **SHAPES["sampled"]) for name, seq in zip("abcd", SEQS)}
        opened = []

        def open_index(key):
            opened.append(key)
            return built[key]

        shelf = IndexShelf(open_index)
        want = {k: Mapper(ix).map_reads(reads()) for k, ix in built.items()}
        for keys in (["a", "b"], ["b", "a"], ["a", "a", "b"], ["b"]):
            assert_batches_equal(shelf.map_reads(keys, reads()), [want[k] for k in keys])
        assert opened == ["a", "b"] and shelf.builds == 1
        assert_batches_equal(shelf.map_reads(["c", "a"], reads()), [want["c"], want["a"]])
        assert shelf.builds == 2
        shelf.release(["a", "zz"])
        assert sorted(shelf.indexes) == ["b", "c"]
        assert_batches_equal(shelf.map_reads(["c"], reads()), [want["c"]])
        assert shelf.builds == 3 and opened == ["a", "b", "c"]
