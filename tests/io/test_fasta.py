"""Unit tests for FASTA parsing/writing, gzip, and invalid-base policies."""

import gzip

import pytest

from repro.io.fasta import (
    FastaError,
    FastaRecord,
    read_fasta,
    read_fasta_str,
    validate_record,
    write_fasta,
)


class TestParse:
    def test_single_record(self):
        recs = read_fasta_str(">chr1 test genome\nACGT\nACGT\n")
        assert len(recs) == 1
        assert recs[0].name == "chr1"
        assert recs[0].description == "test genome"
        assert recs[0].sequence == "ACGTACGT"
        assert recs[0].length == 8

    def test_multi_record(self):
        recs = read_fasta_str(">a\nAC\n>b\nGT\n>c desc here\nTT\n")
        assert [r.name for r in recs] == ["a", "b", "c"]
        assert recs[2].description == "desc here"

    def test_lowercase_uppercased(self):
        recs = read_fasta_str(">x\nacgt\n")
        assert recs[0].sequence == "ACGT"

    def test_blank_lines_tolerated(self):
        recs = read_fasta_str(">x\nAC\n\nGT\n")
        assert recs[0].sequence == "ACGT"

    def test_crlf_tolerated(self):
        recs = read_fasta_str(">x\r\nACGT\r\n")
        assert recs[0].sequence == "ACGT"

    def test_empty_header_rejected(self):
        with pytest.raises(FastaError, match="empty FASTA header"):
            read_fasta_str("> \nACGT\n")

    def test_data_before_header_rejected(self):
        with pytest.raises(FastaError, match="before any"):
            read_fasta_str("ACGT\n>x\nAC\n")

    def test_no_records_rejected(self):
        with pytest.raises(FastaError, match="no FASTA records"):
            read_fasta_str("   \n\n")


class TestInvalidPolicies:
    def test_error_policy(self):
        with pytest.raises(FastaError, match="invalid character"):
            read_fasta_str(">x\nACNNGT\n")

    def test_skip_policy(self):
        recs = read_fasta_str(">x\nACNNGT\n", on_invalid="skip")
        assert recs[0].sequence == "ACGT"

    def test_random_policy_deterministic(self):
        a = read_fasta_str(">x\nACNNGT\n", on_invalid="random", seed=5)
        b = read_fasta_str(">x\nACNNGT\n", on_invalid="random", seed=5)
        assert a[0].sequence == b[0].sequence
        assert len(a[0].sequence) == 6
        assert set(a[0].sequence) <= set("ACGT")

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="on_invalid"):
            read_fasta_str(">x\nACNN\n", on_invalid="whatever")


def _per_char_policy(records, on_invalid, seed=0):
    """The per-character policy the whole-string checks must match:
    each record scanned base by base, one draw per invalid base."""
    import numpy as np

    valid = set("ACGTUacgtu")
    rng = np.random.default_rng(seed)
    out = []
    for name, seq in records:
        if all(ch in valid for ch in seq):
            out.append(seq.upper())
        elif on_invalid == "error":
            bad = next(ch for ch in seq if ch not in valid)
            return (
                f"record {name!r} contains invalid character {bad!r}; "
                f"pass on_invalid='skip' or 'random' to accept it"
            )
        elif on_invalid == "skip":
            out.append("".join(ch for ch in seq if ch in valid).upper())
        else:
            out.append("".join(
                ch.upper() if ch in valid else "ACGT"[rng.integers(0, 4)] for ch in seq
            ))
    return out


class TestWholeStringPolicies:
    """The policies answer exactly what a per-character scan answers."""

    RECORDS = [
        ("a", "acgtuNNRYacgt" * 7 + "-*"),
        ("b", "ACGT" * 30),
        ("c", "nACGTkmn.ACGTuU"),
    ]
    TEXT = "".join(f">{n}\n{seq[:40]}\n{seq[40:]}\n" for n, seq in RECORDS)

    def test_error_names_the_first_bad_character(self):
        want = _per_char_policy(self.RECORDS, "error")
        with pytest.raises(FastaError) as exc:
            read_fasta_str(self.TEXT)
        assert str(exc.value) == want
        with pytest.raises(FastaError, match="invalid character 'n'"):
            read_fasta_str(">x\nACGTnN\n")

    def test_skip_drops_every_invalid_character(self):
        got = [r.sequence for r in read_fasta_str(self.TEXT, on_invalid="skip")]
        assert got == _per_char_policy(self.RECORDS, "skip")

    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_random_draws_match_per_character_draws(self, seed):
        got = [
            r.sequence for r in read_fasta_str(self.TEXT, on_invalid="random", seed=seed)
        ]
        assert got == _per_char_policy(self.RECORDS, "random", seed)


class TestFiles:
    def test_roundtrip_plain(self, tmp_path):
        recs = [FastaRecord("a", "d", "ACGT" * 40), FastaRecord("b", "", "TTTT")]
        path = tmp_path / "x.fa"
        write_fasta(recs, path, line_width=30)
        back = read_fasta(path)
        assert [(r.name, r.sequence) for r in back] == [
            (r.name, r.sequence) for r in recs
        ]

    def test_roundtrip_gzip(self, tmp_path):
        recs = [FastaRecord("g", "", "ACGTACGT")]
        path = tmp_path / "x.fa.gz"
        write_fasta(recs, path, compress=True)
        # Detected by magic bytes, not extension:
        assert read_fasta(path)[0].sequence == "ACGTACGT"

    def test_gzip_detection_wrong_extension(self, tmp_path):
        path = tmp_path / "plain_name.fa"
        with gzip.open(path, "wt") as fh:
            fh.write(">z\nACGT\n")
        assert read_fasta(path)[0].name == "z"

    def test_line_width_respected(self, tmp_path):
        path = tmp_path / "w.fa"
        write_fasta([FastaRecord("a", "", "A" * 100)], path, line_width=25)
        lines = path.read_text().splitlines()
        assert all(len(ln) <= 25 for ln in lines[1:])

    def test_bad_line_width(self, tmp_path):
        with pytest.raises(ValueError):
            write_fasta([], tmp_path / "x.fa", line_width=0)


class TestValidate:
    def test_empty_sequence(self):
        with pytest.raises(FastaError, match="empty"):
            validate_record(FastaRecord("x", "", ""))

    def test_invalid_chars(self):
        with pytest.raises(FastaError, match="non-ACGTU"):
            validate_record(FastaRecord("x", "", "ACGTN"))

    def test_valid_passes(self):
        validate_record(FastaRecord("x", "", "ACGTU"))
