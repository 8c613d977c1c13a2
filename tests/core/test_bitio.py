"""Unit tests for the variable-width bit stream."""

import numpy as np
import pytest

from repro.core.bitio import BitWriter, pack_fields, read_field, read_fields


class TestPackFields:
    def test_empty(self):
        words, n = pack_fields(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        assert n == 0 and words.size == 0

    def test_single_field(self):
        words, n = pack_fields(np.array([0b101], dtype=np.uint64), np.array([3]))
        assert n == 3
        assert int(words[0]) & 0b111 == 0b101

    def test_zero_width_fields_skipped(self):
        words, n = pack_fields(
            np.array([0, 5, 0], dtype=np.uint64), np.array([0, 3, 0])
        )
        assert n == 3
        assert read_field(words, 0, 3) == 5

    def test_zero_width_nonzero_value_rejected(self):
        with pytest.raises(ValueError, match="zero-width"):
            pack_fields(np.array([1], dtype=np.uint64), np.array([0]))

    def test_width_over_63_rejected(self):
        with pytest.raises(ValueError, match="63"):
            pack_fields(np.array([0], dtype=np.uint64), np.array([64]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            pack_fields(np.array([0, 1], dtype=np.uint64), np.array([1]))

    def test_matches_bitwriter_oracle(self):
        rng = np.random.default_rng(0)
        widths = rng.integers(0, 20, size=100)
        values = np.array(
            [rng.integers(0, 1 << w) if w else 0 for w in widths], dtype=np.uint64
        )
        words, n = pack_fields(values, widths)
        writer = BitWriter()
        for v, w in zip(values, widths):
            writer.write(int(v), int(w))
        oracle_words, oracle_n = writer.to_words()
        assert n == oracle_n
        assert np.array_equal(words, oracle_words)


class TestReadField:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        widths = rng.integers(1, 40, size=200)
        values = np.array([rng.integers(0, 1 << w) for w in widths], dtype=np.uint64)
        words, _ = pack_fields(values, widths)
        pos = 0
        for v, w in zip(values, widths):
            assert read_field(words, pos, int(w)) == int(v)
            pos += int(w)

    def test_cross_word_boundary(self):
        # A 10-bit field starting at bit 60 spans two words.
        widths = np.array([60, 10])
        values = np.array([0, 0b1010101010], dtype=np.uint64)
        words, _ = pack_fields(values, widths)
        assert read_field(words, 60, 10) == 0b1010101010

    def test_zero_width_returns_zero(self):
        words = np.array([0xFF], dtype=np.uint64)
        assert read_field(words, 3, 0) == 0


class TestReadFields:
    def test_matches_scalar(self):
        rng = np.random.default_rng(2)
        widths = rng.integers(0, 33, size=300)
        values = np.array(
            [rng.integers(0, 1 << w) if w else 0 for w in widths], dtype=np.uint64
        )
        words, _ = pack_fields(values, widths)
        starts = np.concatenate(([0], np.cumsum(widths)))[:-1]
        got = read_fields(words, starts, widths)
        assert np.array_equal(got, values.astype(np.int64))

    def test_empty_stream_zero_width(self):
        # All widths zero: no words at all, every read must return 0.
        widths = np.zeros(5, dtype=np.int64)
        words, n = pack_fields(np.zeros(5, dtype=np.uint64), widths)
        assert n == 0
        got = read_fields(words, np.zeros(5, dtype=np.int64), widths)
        assert np.array_equal(got, np.zeros(5, dtype=np.int64))

    def test_field_ending_on_last_bit(self):
        widths = np.array([64 - 7, 7])
        values = np.array([1, 0b1111111], dtype=np.uint64)
        words, n = pack_fields(values, widths)
        assert n == 64
        got = read_fields(words, np.array([0, 57]), widths)
        assert got.tolist() == [1, 127]


class TestBitWriter:
    def test_rejects_oversized_value(self):
        w = BitWriter()
        with pytest.raises(ValueError, match="does not fit"):
            w.write(8, 3)

    def test_rejects_negative_width(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(0, -1)

    def test_bit_length_tracks(self):
        w = BitWriter()
        w.write(3, 2)
        w.write(0, 5)
        assert w.bit_length == 7


class TestIncrementalBitPacker:
    """The streaming packer must be bit-identical to one-shot pack_fields."""

    def _random_fields(self, rng, n):
        widths = rng.integers(0, 20, size=n).astype(np.int64)
        values = np.zeros(n, dtype=np.uint64)
        nz = widths > 0
        if nz.any():
            caps = (np.uint64(1) << widths[nz].astype(np.uint64)) - np.uint64(1)
            values[nz] = rng.integers(0, caps + np.uint64(1), dtype=np.uint64)
        return values, widths

    def test_empty(self):
        from repro.core.bitio import IncrementalBitPacker

        packer = IncrementalBitPacker()
        words, n = packer.finalize()
        assert n == 0 and words.size == 0

    def test_single_append_matches_pack_fields(self):
        from repro.core.bitio import IncrementalBitPacker

        rng = np.random.default_rng(0)
        values, widths = self._random_fields(rng, 257)
        want_words, want_bits = pack_fields(values, widths)
        packer = IncrementalBitPacker()
        packer.append(values, widths)
        got_words, got_bits = packer.finalize()
        assert got_bits == want_bits
        assert np.array_equal(got_words, want_words)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_splits_match_pack_fields(self, seed):
        from repro.core.bitio import IncrementalBitPacker

        rng = np.random.default_rng(seed)
        values, widths = self._random_fields(rng, 500)
        want_words, want_bits = pack_fields(values, widths)
        packer = IncrementalBitPacker()
        i = 0
        while i < values.size:
            step = int(rng.integers(1, 40))
            packer.append(values[i : i + step], widths[i : i + step])
            i += step
        got_words, got_bits = packer.finalize()
        assert got_bits == want_bits
        assert np.array_equal(got_words, want_words)

    def test_zero_width_runs(self):
        from repro.core.bitio import IncrementalBitPacker

        packer = IncrementalBitPacker()
        packer.append(np.zeros(10, dtype=np.uint64), np.zeros(10, dtype=np.int64))
        packer.append(np.array([5], dtype=np.uint64), np.array([3]))
        words, n = packer.finalize()
        want_words, want_bits = pack_fields(
            np.array([0] * 10 + [5], dtype=np.uint64),
            np.array([0] * 10 + [3], dtype=np.int64),
        )
        assert n == want_bits
        assert np.array_equal(words, want_words)

    def test_matches_scalar_bitwriter(self):
        from repro.core.bitio import IncrementalBitPacker

        rng = np.random.default_rng(42)
        values, widths = self._random_fields(rng, 300)
        writer = BitWriter()
        for v, w in zip(values, widths):
            writer.write(int(v), int(w))
        want_words, want_bits = writer.to_words()
        packer = IncrementalBitPacker()
        for i in range(0, values.size, 7):
            packer.append(values[i : i + 7], widths[i : i + 7])
        got_words, got_bits = packer.finalize()
        assert got_bits == want_bits
        assert np.array_equal(got_words, want_words)


class TestReadFieldsAllocation:
    def test_rank_batch_allocates_o_batch_not_o_stream(self):
        """A small rank batch must not copy the offset stream (it used to
        pad a full copy per call, touching every page of a mmapped one)."""
        import tracemalloc

        from repro.core.rrr import RRRVector

        rng = np.random.default_rng(3)
        n = 1 << 22
        vec = RRRVector(rng.integers(0, 2, n, dtype=np.uint8), b=15, sf=50)
        assert vec.offset_words.nbytes > 256 * 1024
        positions = rng.integers(0, n + 1, 100)
        want = vec.rank1_many(positions)  # builds the batch cache outside the trace
        tracemalloc.start()
        try:
            got = vec.rank1_many(positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 64 * 1024, f"rank1_many(100) peaked at {peak} bytes"

    def test_fields_ending_at_the_last_bit(self):
        values = np.array([5, 0x7FF, 3, (1 << 40) - 1], dtype=np.uint64)
        widths = np.array([3, 61, 2, 40])
        words, total = pack_fields(values, widths)
        starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
        assert read_fields(words, starts, widths).tolist() == values.tolist()
        # Zero-width fields at the very end of the stream read as 0.
        assert read_fields(words, np.array([total]), np.array([0])).tolist() == [0]
        empty = np.zeros(0, dtype=np.uint64)
        assert read_fields(empty, np.array([0, 0]), np.array([0, 0])).tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_reader_on_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        widths = rng.integers(0, 64, n)
        values = rng.integers(0, 1 << 62, n, dtype=np.uint64) & (
            (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
        )
        words, _ = pack_fields(values, widths)
        starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
        want = [read_field(words, int(s), int(w)) for s, w in zip(starts, widths)]
        assert read_fields(words, starts, widths).tolist() == want
