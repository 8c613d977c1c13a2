"""Unit tests for DNA alphabet handling."""

import numpy as np
import pytest

from repro.sequence.alphabet import (
    AlphabetError,
    decode,
    encode,
    gc_fraction,
    is_valid,
    random_sequence,
    reverse_complement,
)


class TestEncodeDecode:
    def test_codes_are_lexicographic(self):
        assert encode("ACGT").tolist() == [0, 1, 2, 3]

    def test_case_insensitive(self):
        assert np.array_equal(encode("acgt"), encode("ACGT"))

    def test_u_maps_to_t(self):
        assert np.array_equal(encode("U"), encode("T"))
        assert np.array_equal(encode("u"), encode("t"))

    def test_roundtrip(self):
        s = "GATTACAGATTACA"
        assert decode(encode(s)) == s

    def test_decode_uppercases(self):
        assert decode(encode("acgt")) == "ACGT"

    def test_empty(self):
        assert encode("").size == 0
        assert decode(np.zeros(0, dtype=np.uint8)) == ""

    def test_invalid_char_reports_position(self):
        with pytest.raises(AlphabetError, match="position 3"):
            encode("ACGNACGT")

    def test_n_is_rejected(self):
        with pytest.raises(AlphabetError):
            encode("N")

    def test_decode_rejects_bad_codes(self):
        with pytest.raises(AlphabetError):
            decode(np.array([4], dtype=np.int64))

    def test_bytes_input(self):
        assert np.array_equal(encode(b"ACGT"), encode("ACGT"))


class TestReverseComplement:
    def test_known_value(self):
        assert reverse_complement("ACGT") == "ACGT"  # palindrome
        assert reverse_complement("AAAA") == "TTTT"
        assert reverse_complement("GATTACA") == "TGTAATC"

    def test_involution(self):
        rng = np.random.default_rng(0)
        s = random_sequence(100, rng)
        assert reverse_complement(reverse_complement(s)) == s

    def test_invalid_raises(self):
        with pytest.raises(AlphabetError):
            reverse_complement("ACNX")

    def test_empty(self):
        assert reverse_complement("") == ""


class TestValidation:
    def test_is_valid(self):
        assert is_valid("ACGTU")
        assert is_valid("acgt")
        assert not is_valid("ACGN")
        assert not is_valid("hello")


class TestRandomSequence:
    def test_length_and_alphabet(self):
        rng = np.random.default_rng(1)
        s = random_sequence(500, rng)
        assert len(s) == 500
        assert set(s) <= set("ACGT")

    def test_gc_content_respected(self):
        rng = np.random.default_rng(2)
        s = random_sequence(50_000, rng, gc_content=0.7)
        assert abs(gc_fraction(s) - 0.7) < 0.02

    def test_gc_bounds(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            random_sequence(10, rng, gc_content=1.5)

    def test_deterministic_per_seed(self):
        a = random_sequence(50, np.random.default_rng(9))
        b = random_sequence(50, np.random.default_rng(9))
        assert a == b


class TestGCFraction:
    def test_known_values(self):
        assert gc_fraction("GGCC") == 1.0
        assert gc_fraction("AATT") == 0.0
        assert gc_fraction("ACGT") == 0.5
        assert gc_fraction("") == 0.0


class TestUracilComplement:
    def test_u_complements_to_a(self):
        assert reverse_complement("ACGU") == "ACGT"
        assert reverse_complement("acgu") == "acgt"
        assert reverse_complement("UUU") == "AAA"

    def test_u_read_and_t_read_share_a_reverse_strand(self):
        s = "GATTACAGTT"
        assert reverse_complement(s.replace("T", "U")) == reverse_complement(s)


class TestEncodeBatch:
    def test_codes_offsets_and_validity(self):
        from repro.sequence.alphabet import encode_batch

        seqs = ["ACGT", "", "acgu", "ANC", "éA"]
        b = encode_batch(seqs)
        assert b.offsets.tolist() == [0, 4, 4, 8, 11, 13]
        assert b.valid.tolist() == [True, True, True, False, False]
        assert b.codes[:8].tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
        assert len(b) == 5 and b.lengths.tolist() == [4, 0, 4, 3, 2]

    def test_step_matrix_both_strands(self):
        from repro.sequence.alphabet import encode_batch

        seqs = ["ACGTT", "", "gau"]
        mat, lengths = encode_batch(seqs).with_reverse_complements().step_matrix()
        assert lengths.tolist() == [5, 0, 3, 5, 0, 3]
        patterns = seqs + [reverse_complement(s) for s in seqs]
        for row, p in zip(mat.tolist(), patterns):
            consumed = encode(p)[::-1].tolist()  # right to left
            assert row == consumed + [-1] * (5 - len(p))

    @pytest.mark.parametrize("both", [False, True])
    def test_step_matrix_equal_lengths(self, both):
        """Equal-length batches (the reshaped-view path) give the same
        rows as the general path, invalid codes included."""
        from repro.sequence.alphabet import EncodedBatch, encode_batch

        seqs = ["ACGTA", "ggUca", "ACNTT"]
        batch = encode_batch(seqs)
        # The same strings behind two leading codes of another string.
        shifted = EncodedBatch(
            codes=np.concatenate([np.array([1, 2], dtype=batch.codes.dtype), batch.codes]),
            offsets=batch.offsets + 2,
            valid=batch.valid,
        )
        for b in (batch, shifted):
            if both:
                b = b.with_reverse_complements()
            mat, lengths = b.step_matrix()
            codes = [batch.codes[i * 5 : i * 5 + 5] for i in range(3)]
            want = [c[::-1] for c in codes] + ([3 - c for c in codes] if both else [])
            assert lengths.tolist() == [5] * len(want)
            assert mat.dtype == batch.codes.dtype
            assert mat.tolist() == [w.tolist() for w in want]

    def test_take_repacks_segments(self):
        from repro.sequence.alphabet import encode_batch

        b = encode_batch(["AC", "GGT", "", "T"]).take(np.array([3, 1, 2]))
        assert b.offsets.tolist() == [0, 1, 4, 4]
        assert b.codes.tolist() == [3, 2, 2, 3]
