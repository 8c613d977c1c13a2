"""Flat zero-copy container: round trips, integrity, zero copies.

The public ``save_index``/``load_index`` names are bound to the flat
writer and loader; the ``public_*`` tables below drive them directly.
"""

import json
import operator
import struct
import zlib

import numpy as np
import pytest

from repro import load_index, save_index
from repro.check.oracles import oracle_index
from repro.index.builder import build_index
from repro.index.fm_index import FMIndex
from repro.index.flat import (
    ALIGN,
    MAGIC,
    FlatWriter,
    IndexFormatError,
    attach_index_from_buffer,
    export_index,
    flat_container_size,
    load_any_index_auto,
    load_index_flat,
    load_multiref_index_flat,
    pack_flat_into,
    read_flat_manifest,
    save_index_flat,
    save_multiref_index_flat,
    verify_flat_index,
)
from repro.index.multiref import MultiReferenceIndex
from repro.mapper.mapper import Mapper
from repro.serving.shared import FlatFileBlock

PATTERNS = ["ACG", "ACGT" * 10, "TTTTTTTT"]


@pytest.fixture()
def flat_path(tmp_path):
    return tmp_path / "index.bwvr"


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["rrr", "occ"])
    @pytest.mark.parametrize("locate", ["full", "sampled", "none"])
    def test_matches_builder(self, small_text, flat_path, backend, locate):
        index, _ = build_index(
            small_text, sf=8, backend=backend, locate=locate, sa_sample_rate=8
        )
        save_index_flat(index, flat_path)
        loaded = load_index_flat(flat_path)
        pats = PATTERNS + [small_text[100:130], small_text[5:25]]
        for pat in pats:
            a, b = loaded.search(pat), index.search(pat)
            assert (a.start, a.end, a.steps) == (b.start, b.end, b.steps)
            if locate != "none":
                assert loaded.locate(pat).tolist() == index.locate(pat).tolist()

    def test_file_and_buffer_attach_match_bit_for_bit(self, small_text, flat_path):
        """A mapped file and the same bytes attached from memory answer
        identically and report the same size."""
        index, _ = build_index(small_text, b=15, sf=8)
        save_index_flat(index, flat_path)
        flat = load_index_flat(flat_path)
        mem = attach_index_from_buffer(flat_path.read_bytes(), verify=True)
        for pat in PATTERNS + [small_text[i : i + 30] for i in range(0, 300, 97)]:
            fa, ma = flat.search(pat), mem.search(pat)
            assert (fa.start, fa.end) == (ma.start, ma.end)
            assert flat.locate(pat).tolist() == mem.locate(pat).tolist()
        lo1, hi1, st1 = flat.search_batch(PATTERNS)
        lo2, hi2, st2 = mem.search_batch(PATTERNS)
        assert lo1.tolist() == lo2.tolist()
        assert hi1.tolist() == hi2.tolist()
        assert st1.tolist() == st2.tolist()
        assert flat.size_in_bytes() == mem.size_in_bytes() == index.size_in_bytes()

    def test_parameters_preserved(self, small_text, flat_path):
        index, _ = build_index(small_text, b=10, sf=12)
        save_index_flat(index, flat_path)
        loaded = load_index_flat(flat_path)
        assert loaded.backend.b == 10
        assert loaded.backend.sf == 12

    def test_sentinel_variant_preserved(self, small_text, flat_path):
        index = oracle_index(small_text, store_sentinel_in_tree=True, sf=8)
        save_index_flat(index, flat_path)
        loaded = load_index_flat(flat_path)
        assert loaded.backend.store_sentinel_in_tree is True
        pat = small_text[40:70]
        assert loaded.count(pat) == index.count(pat)

    @pytest.mark.parametrize(
        "build, expect",
        [
            (dict(b=15, sf=8), {}),
            (dict(backend="occ", locate="none"), {"locate_structure": None}),
            (dict(locate="sampled", sa_sample_rate=8, sf=8), {}),
            (dict(locate="none", sf=8), {"locate_structure": None}),
            (dict(b=10, sf=12), {"backend.b": 10, "backend.sf": 12}),
            (dict(store_sentinel_in_tree=True, sf=8),
             {"backend.store_sentinel_in_tree": True}),
        ],
        ids=["rrr", "occ", "sampled", "no_locate", "parameters", "sentinel_variant"],
    )
    def test_public_names_round_trip(self, small_text, flat_path, build, expect):
        # The builder makes only the four-symbol tree; the oracle pipeline
        # makes the five-symbol one.
        if build.get("store_sentinel_in_tree"):
            index = oracle_index(small_text, **build)
        else:
            index, _ = build_index(small_text, **build)
        save_index(index, flat_path)
        assert flat_path.read_bytes()[: len(MAGIC)] == MAGIC
        loaded = load_index(flat_path)
        pats = ["ACG", "ACGT" * 10] + [small_text[i:j] for i, j in ((100, 130), (5, 25), (60, 90))]
        for pat in pats:
            assert loaded.count(pat) == index.count(pat)
            if index.locate_structure is not None:
                assert loaded.locate(pat).tolist() == index.locate(pat).tolist()
        for attr, value in expect.items():
            assert operator.attrgetter(attr)(loaded) == value

    def test_resave_of_loaded_index(self, small_text, flat_path, tmp_path):
        """A flat-loaded index can itself be exported again."""
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        loaded = load_index_flat(flat_path)
        save_index_flat(loaded, tmp_path / "again.bwvr")
        assert (tmp_path / "again.bwvr").read_bytes() == flat_path.read_bytes()


class TestSuffixArraySegment:
    """Only full-SA locate stores the suffix array; sampled and no-locate
    containers leave it out, and containers that carry it anyway (as
    every container once did) still load."""

    def _names(self, path):
        return {e["name"] for e in read_flat_manifest(np.memmap(path, dtype=np.uint8, mode="r"))[1]}

    @pytest.mark.parametrize("locate", ["sampled", "none"])
    def test_written_only_for_full_locate(self, small_text, tmp_path, locate):
        full, _ = build_index(small_text, sf=8, locate="full")
        index, _ = build_index(small_text, sf=8, locate=locate, sa_sample_rate=8)
        save_index_flat(full, tmp_path / "full.bwvr")
        save_index_flat(index, tmp_path / "x.bwvr")
        assert "sa" in self._names(tmp_path / "full.bwvr")
        assert "sa" not in self._names(tmp_path / "x.bwvr")
        saved = (tmp_path / "full.bwvr").stat().st_size - (tmp_path / "x.bwvr").stat().st_size
        assert saved > 4 * full.locate_structure.sa.size // 2  # a uint32 per row
        loaded = load_index_flat(tmp_path / "x.bwvr", verify=True)
        assert loaded.backend.bwt is None
        reads = [small_text[i : i + 30] for i in range(0, 1500, 97)] + ["ACGTNA"]
        want = Mapper(index, locate=locate != "none").map_reads(reads)
        got = Mapper(loaded, locate=locate != "none").map_reads(reads)
        for g, w in zip(got, want):
            assert g.forward.interval == w.forward.interval
            assert g.reverse.interval == w.reverse.interval
            if locate == "sampled":
                assert g.forward.positions.tolist() == w.forward.positions.tolist()
                assert g.reverse.positions.tolist() == w.reverse.positions.tolist()

    def test_sampled_container_with_sa_still_loads(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8, locate="sampled", sa_sample_rate=8)
        meta, segments = export_index(index)
        sa = build_index(small_text, sf=8)[0].locate_structure.sa
        with FlatWriter(flat_path) as writer:
            writer.add_segment("sa", sa)
            for name, arr in segments.items():
                writer.add_segment(name, arr)
            writer.finalize(meta)
        loaded = load_index_flat(flat_path, verify=True)
        pat = small_text[300:320]
        assert loaded.locate(pat).tolist() == index.locate(pat).tolist()

    def test_row_sampled_container_rejected(self, small_text, flat_path):
        """The row-sampled layout (``locate/samples`` = every k-th row's
        int64 SA entry, no mark vector) is refused with a rebuild hint."""
        index = oracle_index(small_text, sf=8, locate="sampled", sa_sample_rate=8)
        meta, segments = export_index(index)
        sa = index.backend.bwt.sa
        meta["locate_meta"] = {"k": 8, "n_rows": int(sa.size)}
        segments = {n: a for n, a in segments.items() if not n.startswith("locate/")}
        segments["locate/samples"] = sa[::8].copy()
        with FlatWriter(flat_path) as writer:
            for name, arr in segments.items():
                writer.add_segment(name, arr)
            writer.finalize(meta)
        with pytest.raises(IndexFormatError, match="no longer read.*rebuild"):
            load_index_flat(flat_path, verify=True)

    def test_full_locate_without_sa_rejected(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8, locate="full")
        meta, segments = export_index(index)
        del segments["sa"]
        with FlatWriter(flat_path) as writer:
            for name, arr in segments.items():
                writer.add_segment(name, arr)
            writer.finalize(meta)
        with pytest.raises(IndexFormatError, match="missing field"):
            load_index_flat(flat_path)


class TestZeroCopy:
    def test_arrays_view_the_mapping(self, small_text, flat_path):
        """Loaded structure arrays are views into one backing buffer."""
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        loaded = load_index_flat(flat_path)
        root = loaded.backend.tree.root.bits
        for arr in (root.classes, root.partial_sums, loaded.backend.C):
            base = arr
            while isinstance(base.base, np.ndarray):
                base = base.base
            assert isinstance(base, np.memmap)

    def test_segments_are_aligned(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        mm = np.memmap(flat_path, dtype=np.uint8, mode="r")
        _, entries, data_start = read_flat_manifest(mm)
        assert data_start % ALIGN == 0
        for entry in entries:
            assert entry["offset"] % ALIGN == 0

    def test_pack_into_buffer_attach(self, small_text):
        """The same container attaches from any byte buffer (shm path)."""
        index, _ = build_index(small_text, sf=8)
        meta, segments = export_index(index)
        size = flat_container_size(meta, segments)
        buf = np.zeros(size, dtype=np.uint8)
        assert pack_flat_into(buf, meta, segments) == size
        attached = attach_index_from_buffer(buf, verify=True)
        pat = small_text[20:50]
        assert attached.count(pat) == index.count(pat)


class TestIntegrity:
    def test_verify_passes_on_clean_file(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        names = verify_flat_index(flat_path)
        assert "sa" in names and "bwt_codes" not in names

    def test_corrupted_segment_rejected(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        raw = bytearray(flat_path.read_bytes())
        raw[-3] ^= 0xFF  # flip a bit inside the last segment
        flat_path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="checksum"):
            verify_flat_index(flat_path)
        with pytest.raises(IndexFormatError, match="checksum"):
            load_index_flat(flat_path, verify=True)
        # Lazy open does not touch segment pages, so it still succeeds.
        load_index_flat(flat_path)

    def test_every_segment_checksummed(self, small_text, flat_path):
        """Flipping any single segment trips verification."""
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        clean = flat_path.read_bytes()
        mm = np.frombuffer(clean, dtype=np.uint8)
        _, entries, data_start = read_flat_manifest(mm)
        for entry in entries:
            raw = bytearray(clean)
            raw[data_start + entry["offset"]] ^= 0x01
            flat_path.write_bytes(bytes(raw))
            with pytest.raises(IndexFormatError, match="checksum"):
                verify_flat_index(flat_path)

    def test_bad_magic_rejected(self, small_text, flat_path):
        flat_path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
        with pytest.raises(IndexFormatError, match="magic"):
            load_index_flat(flat_path)

    def test_truncated_file_rejected(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        raw = flat_path.read_bytes()
        flat_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index_flat(flat_path)

    def test_unsupported_version_rejected(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        raw = bytearray(flat_path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        flat_path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="version"):
            load_index_flat(flat_path)

    def test_corrupt_manifest_rejected(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        raw = bytearray(flat_path.read_bytes())
        raw[20] ^= 0xFF  # inside the manifest JSON
        flat_path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError):
            load_index_flat(flat_path)

    @pytest.mark.parametrize(
        "loader",
        [
            load_index_flat,
            load_multiref_index_flat,
            load_any_index_auto,
            verify_flat_index,
            FlatFileBlock,
        ],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("kind", ["empty", "directory", "eight_bytes"])
    def test_unmappable_path_rejected(self, tmp_path, kind, loader):
        """Every opener turns mapping failures into IndexFormatError."""
        path = tmp_path / "idx.bwvr"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"" if kind == "empty" else MAGIC)
        with pytest.raises(IndexFormatError):
            loader(path)

    @pytest.mark.parametrize(
        "damage, verify, match",
        [
            (lambda raw: raw[:-5] + bytes([raw[-5] ^ 0xFF]) + raw[-4:], True, "checksum mismatch"),
            (lambda raw: raw[: len(raw) // 2], False, None),
            (lambda raw: b"not a flat index container at all", False, None),
            (lambda raw: raw[:8] + struct.pack("<I", 999) + raw[12:], False, "version"),
        ],
        ids=["bit_flip", "truncated", "garbage", "bad_version"],
    )
    def test_public_load_rejects(self, small_text, flat_path, damage, verify, match):
        index, _ = build_index(small_text, sf=8)
        save_index(index, flat_path)
        flat_path.write_bytes(damage(flat_path.read_bytes()))
        with pytest.raises(IndexFormatError, match=match):
            load_index(flat_path, verify=verify)

    def test_public_load_rejects_missing_field(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        meta, segments = export_index(index)
        with FlatWriter(flat_path) as writer:
            for name, arr in segments.items():
                if name != "sa":
                    writer.add_segment(name, arr)
            writer.finalize(meta)
        with pytest.raises(IndexFormatError, match="missing field"):
            load_index(flat_path)

    def test_public_save_rejects_unknown_backend(self, flat_path):
        class FakeBackend:
            n_rows = 1

        with pytest.raises(IndexFormatError, match="cannot export"):
            save_index(FMIndex(FakeBackend(), locate_structure=None), flat_path)

    def test_manifest_crcs_present(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        raw = flat_path.read_bytes()
        mm = np.frombuffer(raw, dtype=np.uint8)
        _, entries, data_start = read_flat_manifest(mm)
        for entry in entries:
            seg = raw[
                data_start + entry["offset"] : data_start + entry["offset"] + entry["nbytes"]
            ]
            assert (zlib.crc32(seg) & 0xFFFFFFFF) == entry["crc32"]

    def test_public_save_carries_checksums(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index(index, flat_path)
        mm = np.memmap(flat_path, dtype=np.uint8, mode="r")
        _, entries, _ = read_flat_manifest(mm)
        assert "sa" in {e["name"] for e in entries}
        assert all(isinstance(e["crc32"], int) for e in entries)


class TestDetection:
    def test_detect_both_formats(self, small_text, tmp_path):
        """Flat containers open; a legacy .npz (zip) archive is refused with
        a rebuild hint."""
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, tmp_path / "a.bwvr")
        assert (tmp_path / "a.bwvr").read_bytes()[:8] == MAGIC
        assert load_any_index_auto(tmp_path / "a.bwvr").n_rows == index.n_rows
        zipped = tmp_path / "a.npz"
        np.savez_compressed(zipped, bwt_codes=np.zeros(4, dtype=np.uint8))
        with pytest.raises(IndexFormatError, match="no longer read.*bwaver-repro index"):
            load_any_index_auto(zipped)

    def test_detect_garbage(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"garbage!" * 8)
        with pytest.raises(IndexFormatError, match="magic"):
            load_any_index_auto(p)

    def test_auto_load_both(self, small_text, tmp_path):
        """Lazy and verified opens answer alike."""
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, tmp_path / "a.bwvr")
        pat = small_text[10:40]
        for verify in (False, True):
            loaded = load_any_index_auto(tmp_path / "a.bwvr", verify=verify)
            assert loaded.count(pat) == index.count(pat)


def _random_dna(n, seed):
    rng = np.random.default_rng(seed)
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


@pytest.fixture(scope="module")
def two_refs():
    return [("chrA", _random_dna(700, 181)), ("chrB", _random_dna(500, 182))]


class TestMultiRef:
    @pytest.mark.parametrize(
        "ask, want",
        [
            (lambda idx, refs: [idx.locate(seq[50:90]) for _, seq in refs], None),
            # a pattern spanning the chrA/chrB junction is filtered out
            (lambda idx, refs: idx.count(refs[0][1][-10:] + refs[1][1][:10]), 0),
            (lambda idx, refs: any(
                h.name == "chrB" and h.position == 200
                for h in idx.map_read(refs[1][1][200:240]).hits), True),
        ],
        ids=["locate_each_reference", "boundary_filtering", "map_read"],
    )
    def test_loaded_answers_like_built(self, two_refs, tmp_path, ask, want):
        multi = MultiReferenceIndex(two_refs, sf=8)
        path = tmp_path / "m.bwvr"
        save_multiref_index_flat(multi, path)
        loaded = load_multiref_index_flat(path)
        assert loaded.names == multi.names
        assert np.array_equal(loaded.lengths, multi.lengths)
        assert ask(loaded, two_refs) == (ask(multi, two_refs) if want is None else want)

    def test_index_and_map_cli(self, two_refs, tmp_path):
        from repro.cli import main
        from repro.io.fasta import FastaRecord, write_fasta
        from repro.io.fastq import FastqRecord, write_fastq

        fa = tmp_path / "multi.fa"
        write_fasta([FastaRecord(n, "", s) for n, s in two_refs], fa)
        reads = [two_refs[0][1][100:140], "ACGT" * 10]
        fq = tmp_path / "r.fq"
        write_fastq(
            [FastqRecord(f"r{i}", s, "I" * len(s)) for i, s in enumerate(reads)], fq
        )
        idx = tmp_path / "m.bwvr"
        assert main(["index", str(fa), "-o", str(idx), "-s", "8"]) == 0
        out = tmp_path / "hits.tsv"
        assert main(["map", str(idx), str(fq), "-o", str(out)]) == 0
        body = out.read_text().splitlines()
        assert body[0] == "read\tsequence\tposition\tstrand"
        assert "r0\tchrA\t100\t+" in body
        sam = tmp_path / "hits.sam"
        assert main(["map", str(idx), str(fq), "-o", str(sam), "--format", "sam"]) == 0
        lines = sam.read_text().splitlines()
        assert any(line.startswith("@SQ\tSN:chrA") for line in lines)
        assert any(line.startswith("@SQ\tSN:chrB") for line in lines)

    def test_round_trip(self, tmp_path):
        multi = MultiReferenceIndex(
            [("chr1", "ACGTACGTACGGTACA" * 10), ("chr2", "TTGACCAGT" * 12)], sf=8
        )
        path = tmp_path / "multi.bwvr"
        save_multiref_index_flat(multi, path)
        loaded = load_multiref_index_flat(path)
        assert loaded.names == multi.names
        assert loaded.lengths.tolist() == multi.lengths.tolist()
        assert loaded.locate("ACGGTACA") == multi.locate("ACGGTACA")
        assert loaded.count("TTGACCAGT") == multi.count("TTGACCAGT")

    def test_wrong_loader_raises(self, small_text, tmp_path):
        multi = MultiReferenceIndex([("c1", "ACGT" * 30)], sf=8)
        mpath = tmp_path / "multi.bwvr"
        save_multiref_index_flat(multi, mpath)
        with pytest.raises(IndexFormatError, match="multi-reference"):
            load_index_flat(mpath)
        index, _ = build_index(small_text, sf=8)
        spath = tmp_path / "single.bwvr"
        save_index_flat(index, spath)
        with pytest.raises(IndexFormatError, match="single-reference"):
            load_multiref_index_flat(spath)

    def test_multiref_load_rejects_single_index(self, tmp_path):
        index, _ = build_index(_random_dna(300, 183), sf=8)
        path = tmp_path / "s.bwvr"
        save_index_flat(index, path)
        with pytest.raises(IndexFormatError, match="single-reference"):
            load_multiref_index_flat(path)

    def test_multiref_save_rejects_wrong_type(self, tmp_path):
        with pytest.raises(IndexFormatError, match="MultiReferenceIndex"):
            save_multiref_index_flat(object(), tmp_path / "x.bwvr")

    def test_every_open_is_recorded(self, small_text, tmp_path):
        """Multi-reference opens share the span and metrics of single ones."""
        from repro.telemetry import Telemetry, set_telemetry

        save_multiref_index_flat(
            MultiReferenceIndex([("c1", "ACGT" * 30)], sf=8), tmp_path / "m.bwvr"
        )
        tel = set_telemetry(Telemetry(enabled=True))
        try:
            load_multiref_index_flat(tmp_path / "m.bwvr")
            load_any_index_auto(tmp_path / "m.bwvr")
        finally:
            set_telemetry(Telemetry(enabled=False))
        assert tel.metrics.counter("index_flat_loads_total").value() == 2
        spans = [e for e in tel.tracer.chrome_events() if e.get("ph") == "X"]
        assert [e["name"] for e in spans] == ["index.load_flat"] * 2

    def test_auto_dispatch(self, small_text, tmp_path):
        multi = MultiReferenceIndex([("c1", "ACGT" * 30)], sf=8)
        save_multiref_index_flat(multi, tmp_path / "m.bwvr")
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, tmp_path / "s.bwvr")
        assert isinstance(
            load_any_index_auto(tmp_path / "m.bwvr"), MultiReferenceIndex
        )
        assert not isinstance(
            load_any_index_auto(tmp_path / "s.bwvr"), MultiReferenceIndex
        )


class TestManifest:
    def test_manifest_is_json_with_meta(self, small_text, flat_path):
        index, _ = build_index(small_text, sf=8)
        save_index_flat(index, flat_path)
        raw = flat_path.read_bytes()
        magic, version, mlen, data_start = struct.unpack("<8sIIQ", raw[:24])
        doc = json.loads(raw[24 : 24 + mlen])
        assert doc["meta"]["backend"] == "rrr"
        assert {e["name"] for e in doc["segments"]} >= {"sa", "backend/C"}
