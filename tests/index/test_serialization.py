"""Unit tests for the public ``save_index``/``load_index`` persistence API.

Both names are bound to the flat container writer and loader.
"""

import numpy as np
import pytest

from repro import load_index, save_index
from repro.index.builder import build_index
from repro.index.flat import (
    MAGIC,
    FlatWriter,
    IndexFormatError,
    export_index,
    read_flat_manifest,
)


@pytest.fixture()
def tmp_index_path(tmp_path):
    return tmp_path / "index.bwvr"


class TestRoundTrip:
    def test_rrr_backend(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, b=15, sf=8)
        save_index(index, tmp_index_path)
        assert tmp_index_path.read_bytes()[: len(MAGIC)] == MAGIC
        loaded = load_index(tmp_index_path)
        for pat in ["ACG", small_text[100:130], "ACGT" * 10]:
            assert loaded.count(pat) == index.count(pat)
            assert loaded.locate(pat).tolist() == index.locate(pat).tolist()

    def test_occ_backend(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, backend="occ", locate="none")
        save_index(index, tmp_index_path)
        loaded = load_index(tmp_index_path)
        assert loaded.count(small_text[5:25]) == index.count(small_text[5:25])
        assert loaded.locate_structure is None

    def test_sampled_locate(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, locate="sampled", sa_sample_rate=8, sf=8)
        save_index(index, tmp_index_path)
        loaded = load_index(tmp_index_path)
        pat = small_text[60:90]
        assert loaded.locate(pat).tolist() == index.locate(pat).tolist()

    def test_no_locate(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, locate="none", sf=8)
        save_index(index, tmp_index_path)
        loaded = load_index(tmp_index_path)
        assert loaded.locate_structure is None

    def test_parameters_preserved(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, b=10, sf=12)
        save_index(index, tmp_index_path)
        loaded = load_index(tmp_index_path)
        assert loaded.backend.b == 10
        assert loaded.backend.sf == 12

    def test_sentinel_variant_preserved(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, store_sentinel_in_tree=True, sf=8)
        save_index(index, tmp_index_path)
        loaded = load_index(tmp_index_path)
        assert loaded.backend.store_sentinel_in_tree is True


class TestIntegrity:
    def test_archives_carry_checksums(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, sf=8)
        save_index(index, tmp_index_path)
        mm = np.memmap(tmp_index_path, dtype=np.uint8, mode="r")
        _, entries, _ = read_flat_manifest(mm)
        assert {"bwt_codes", "sa"} <= {e["name"] for e in entries}
        assert all(isinstance(e["crc32"], int) for e in entries)

    def test_bit_flip_detected(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, sf=8)
        save_index(index, tmp_index_path)
        raw = bytearray(tmp_index_path.read_bytes())
        raw[-5] ^= 0xFF  # payload byte inside the last segment
        tmp_index_path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="checksum mismatch"):
            load_index(tmp_index_path, verify=True)

    def test_truncated_file_raises_format_error(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, sf=8)
        save_index(index, tmp_index_path)
        raw = tmp_index_path.read_bytes()
        tmp_index_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IndexFormatError):
            load_index(tmp_index_path)

    def test_garbage_file_raises_format_error(self, tmp_index_path):
        tmp_index_path.write_bytes(b"not a flat index container at all")
        with pytest.raises(IndexFormatError):
            load_index(tmp_index_path)


class TestErrors:
    def test_missing_field(self, small_text, tmp_index_path):
        index, _ = build_index(small_text, sf=8)
        meta, segments = export_index(index)
        with FlatWriter(tmp_index_path) as writer:
            for name, arr in segments.items():
                if name != "sa":
                    writer.add_segment(name, arr)
            writer.finalize(meta)
        with pytest.raises(IndexFormatError, match="missing field"):
            load_index(tmp_index_path)

    def test_bad_version(self, small_text, tmp_index_path):
        import struct

        index, _ = build_index(small_text, sf=8)
        save_index(index, tmp_index_path)
        raw = bytearray(tmp_index_path.read_bytes())
        raw[8:12] = struct.pack("<I", 999)
        tmp_index_path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="version"):
            load_index(tmp_index_path)

    def test_unsupported_backend_type(self, small_text, tmp_index_path):
        from repro.index.fm_index import FMIndex

        class FakeBackend:
            n_rows = 1

        with pytest.raises(IndexFormatError, match="cannot export"):
            save_index(FMIndex(FakeBackend(), locate_structure=None), tmp_index_path)
