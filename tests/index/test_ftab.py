"""K-mer jump-start table (ftab): bit-identity across the whole stack.

The contract under test everywhere: with the table attached, every
search path — scalar, batch, mapper, FPGA model, worker pool — returns
exactly the ``(start, end, steps)`` it returns without the table, while
doing strictly less rank work.
"""

from itertools import product

import numpy as np
import pytest

from repro import build_index
from repro.core.counters import CounterScope
from repro.index import DEFAULT_FTAB_K, Ftab, build_ftab
from repro.index.bidirectional import BidirectionalFMIndex
from repro.index.fm_index import FMIndex
from repro.index.flat import (
    FlatWriter,
    IndexFormatError,
    attach_index_from_buffer,
    export_index,
    load_index_flat,
    save_index_flat,
    verify_flat_index,
)
from repro.index.ftab import FTAB_FORMAT_VERSION, MAX_FTAB_K
from repro.index.validate import IndexValidationError, validate_index
from repro.mapper.mapper import Mapper
from repro.mapper.results import REASON_INVALID_BASE
from repro.sequence.alphabet import encode

K = 5


@pytest.fixture(scope="module")
def pair(small_text):
    """The same index twice: without and with the jump-start table."""
    plain, _ = build_index(small_text, b=15, sf=8)
    primed, report = build_index(
        small_text, b=15, sf=8, ftab_k=K
    )
    assert primed.ftab is not None and primed.ftab.k == K
    assert report.ftab_bytes == primed.ftab.size_in_bytes() > 0
    return plain, primed


def battery(text: str) -> list[str]:
    """Patterns spanning every priming regime (relative to K)."""
    return [
        "",                      # empty: sentinel-excluded whole interval
        "A", "ACG", text[3:7],   # shorter than k: never primed
        text[10 : 10 + K],       # exactly k: fully table-resolved
        text[40:120],            # long present read
        text[-K:],               # suffix of the text
        "ACGT" * 10,             # (almost surely) absent
        "T" * 60,                # empties early, inside the seed region
        text,                    # the whole text
    ]


class TestBuildParity:
    """The table must equal the stepwise search on every possible entry."""

    @pytest.mark.parametrize("backend", ["rrr", "occ"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_kmers(self, backend, k):
        text = "ACGTACGTTACGGATCCA"
        plain, _ = build_index(text, b=15, sf=8, backend=backend)
        primed, _ = build_index(text, b=15, sf=8, backend=backend, ftab_k=k)
        for kmer in map("".join, product("ACGT", repeat=k)):
            a, b = plain.search(kmer), primed.search(kmer)
            assert (a.start, a.end, a.steps) == (b.start, b.end, b.steps), kmer
            assert b.end - b.start == text.count(kmer)

    @pytest.mark.parametrize("text", ["A", "AAAA", "ACGT", "GGGGGGGG"])
    def test_degenerate_texts(self, text):
        plain, _ = build_index(text, b=15, sf=8)
        primed, _ = build_index(text, b=15, sf=8, ftab_k=3)
        for kmer in map("".join, product("ACGT", repeat=3)):
            a, b = plain.search(kmer), primed.search(kmer)
            assert (a.start, a.end, a.steps) == (b.start, b.end, b.steps), kmer

    def test_build_ftab_on_backend(self, small_index):
        ftab = build_ftab(small_index.backend, k=2)
        assert len(ftab) == 16
        for kmer in map("".join, product("ACGT", repeat=2)):
            lo, hi, steps = ftab.lookup(encode(kmer))
            res = small_index.search(kmer)
            assert (lo, hi, steps) == (res.start, res.end, res.steps)

    def test_k_bounds(self, small_index):
        with pytest.raises(ValueError, match="ftab k"):
            Ftab.build(small_index.backend, k=0)
        with pytest.raises(ValueError, match="ftab k"):
            Ftab.build(small_index.backend, k=MAX_FTAB_K + 1)

    def test_from_arrays_rejects_newer_version(self, small_index):
        ftab = build_ftab(small_index.backend, k=2)
        meta, arrays = ftab.export_arrays()
        again = Ftab.from_arrays(meta, arrays)
        assert again.k == 2 and np.array_equal(again.bounds, ftab.bounds)
        with pytest.raises(ValueError, match="newer than supported"):
            Ftab.from_arrays({**meta, "version": FTAB_FORMAT_VERSION + 1}, arrays)

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            Ftab(
                2,
                np.zeros(16, dtype=np.uint32),
                np.zeros(16, dtype=np.uint8),
                np.zeros((0, 2), dtype=np.uint32),
            )

    def test_default_k_matches_bowtie(self):
        assert DEFAULT_FTAB_K == 10


class TestSearchParity:
    def test_scalar_triples(self, pair, small_text):
        plain, primed = pair
        for pat in battery(small_text):
            a, b = plain.search(pat), primed.search(pat)
            assert (a.start, a.end, a.steps) == (b.start, b.end, b.steps), pat
            assert plain.count(pat) == primed.count(pat)

    def test_empty_pattern_unchanged(self, pair, small_text):
        _, primed = pair
        res = primed.search("")
        assert (res.start, res.end) == (1, len(small_text) + 1)
        assert primed.count("") == len(small_text)

    def test_short_reads_never_primed(self, pair, small_text):
        """Patterns under k take the stepwise path: no lookup charged."""
        _, primed = pair
        with CounterScope() as scope:
            primed.search(small_text[: K - 1])
        assert scope.delta.get("ftab_lookups", 0) == 0

    def test_batch_matches_scalar_and_plain(self, pair, small_text):
        plain, primed = pair
        pats = battery(small_text)
        lo_a, hi_a, st_a = plain.search_batch(pats)
        lo_b, hi_b, st_b = primed.search_batch(pats)
        assert np.array_equal(lo_a, lo_b)
        assert np.array_equal(hi_a, hi_b)
        assert np.array_equal(st_a, st_b)
        for i, pat in enumerate(pats):
            res = primed.search(pat)
            assert (int(lo_b[i]), int(hi_b[i]), int(st_b[i])) == (
                res.start, res.end, res.steps,
            ), pat

    def test_locate_parity(self, pair, small_text):
        plain, primed = pair
        for pat in (small_text[30:60], small_text[7 : 7 + K], "ACGT" * 10):
            assert sorted(plain.locate(pat).tolist()) == sorted(
                primed.locate(pat).tolist()
            )

    def test_use_ftab_toggle(self, pair, small_text):
        _, primed = pair
        pat = small_text[40:120]
        with CounterScope() as on_scope:
            res_on = primed.search(pat)
        primed.use_ftab = False
        try:
            with CounterScope() as off_scope:
                res_off = primed.search(pat)
        finally:
            primed.use_ftab = True
        assert (res_on.start, res_on.end, res_on.steps) == (
            res_off.start, res_off.end, res_off.steps,
        )
        assert on_scope.delta.get("ftab_lookups", 0) == 1
        assert off_scope.delta.get("ftab_lookups", 0) == 0
        assert on_scope.delta["bs_steps"] < off_scope.delta["bs_steps"]

    def test_batch_executes_fewer_steps(self, pair, small_text):
        plain, primed = pair
        pats = [small_text[i : i + 50] for i in range(0, 500, 10)]
        with CounterScope() as off_scope:
            plain.search_batch(pats)
        with CounterScope() as on_scope:
            primed.search_batch(pats)
        assert on_scope.delta.get("ftab_lookups", 0) == len(pats)
        saved = off_scope.delta["bs_steps"] - on_scope.delta["bs_steps"]
        # Every fully-consumed read skips all k seed iterations; the lookup
        # is charged to ftab_lookups, not bs_steps.
        assert saved == len(pats) * K


class TestMapperParity:
    def test_reads_with_n_and_short_reads(self, pair, small_text):
        plain, primed = pair
        reads = [
            small_text[20:70],
            small_text[100:130][::-1],
            "ACGNACGTACGT",     # invalid base
            "NN",               # invalid, shorter than k
            "ACG",              # valid, shorter than k
            "",                 # empty read
            "ACGT" * 12,        # unmapped
        ]
        res_off = Mapper(plain, locate=True).map_reads(reads)
        res_on = Mapper(primed, locate=True).map_reads(reads)
        for a, b, read in zip(res_off, res_on, reads):
            assert a.reason == b.reason, read
            assert a.mapped == b.mapped, read
            fa, fb = a.forward.interval, b.forward.interval
            ra, rb = a.reverse.interval, b.reverse.interval
            assert (fa.start, fa.end, ra.start, ra.end) == (
                fb.start, fb.end, rb.start, rb.end,
            ), read
        assert res_on[2].reason == REASON_INVALID_BASE
        assert res_on[3].reason == REASON_INVALID_BASE


class TestPersistence:
    def test_flat_roundtrip_with_ftab(self, pair, small_text, tmp_path):
        _, primed = pair
        path = tmp_path / "primed.bwvr"
        save_index_flat(primed, path)
        names = verify_flat_index(path)  # CRC over every segment, ftab included
        assert {"ftab/bounds", "ftab/steps", "ftab/tails"} <= set(names)
        loaded = load_index_flat(path, verify=True)
        assert loaded.ftab is not None and loaded.ftab.k == K
        assert np.array_equal(loaded.ftab.bounds, primed.ftab.bounds)
        assert np.array_equal(loaded.ftab.steps, primed.ftab.steps)
        assert np.array_equal(loaded.ftab.tails, primed.ftab.tails)
        # Zero-copy attach: the table is a view into the mapping, not a copy.
        assert not loaded.ftab.bounds.flags["OWNDATA"]
        for pat in battery(small_text):
            a, b = primed.search(pat), loaded.search(pat)
            assert (a.start, a.end, a.steps) == (b.start, b.end, b.steps)

    def test_flat_without_ftab_still_loads(self, pair, tmp_path):
        """Containers written before the segment existed attach unchanged."""
        plain, _ = pair
        path = tmp_path / "plain.bwvr"
        save_index_flat(plain, path)
        loaded = load_index_flat(path, verify=True)
        assert loaded.ftab is None

    def test_buffer_attach_shares_ftab(self, pair, small_text, tmp_path):
        _, primed = pair
        path = tmp_path / "primed.bwvr"
        save_index_flat(primed, path)
        buf = path.read_bytes()
        attached = attach_index_from_buffer(buf, verify=True)
        assert attached.ftab is not None
        assert not attached.ftab.bounds.flags["OWNDATA"]
        pat = small_text[25:90]
        a, b = primed.search(pat), attached.search(pat)
        assert (a.start, a.end, a.steps) == (b.start, b.end, b.steps)


def _write_with_ftab_arrays(index, path, version, arrays):
    """``index`` as a container whose ftab segments and manifest version
    are replaced (CRCs computed as the writer always does)."""
    meta, segments = export_index(index)
    meta["ftab"]["version"] = version
    segments = {n: a for n, a in segments.items() if not n.startswith("ftab/")}
    segments.update({f"ftab/{n}": a for n, a in arrays.items()})
    with FlatWriter(path) as writer:
        for name, arr in segments.items():
            writer.add_segment(name, arr)
        writer.finalize(meta)


class TestContainerLayout:
    def test_one_uint32_boundary_per_kmer(self, pair, tmp_path):
        """The container holds the boundaries, steps and short suffixes,
        no raw BWT copy, and the suffix array as uint32."""
        _, primed = pair
        path = tmp_path / "primed.bwvr"
        save_index_flat(primed, path)
        _, segments = export_index(primed)
        assert "bwt_codes" not in segments and segments["sa"].dtype == np.uint32
        ftab = primed.ftab
        assert ftab.bounds.dtype == np.uint32 and ftab.bounds.size == 4**K + 1
        assert int(ftab.bounds[-1]) == primed.n_rows
        assert ftab.size_in_bytes() == 4 * (4**K + 1) + 4**K + ftab.tails.nbytes
        assert ftab.tails.shape == (K - 1,)

    @pytest.mark.parametrize("command", ["map", "inspect"])
    def test_version_one_table_is_refused(self, pair, small_text, tmp_path, capsys, command):
        """A container with the int64 (lo, hi) table names the rebuild,
        and the CLI exits 2 on it."""
        from repro.cli import main

        _, primed = pair
        lo, hi, steps = primed.ftab.lookup_many(np.arange(len(primed.ftab)))
        path = tmp_path / "v1.bwvr"
        _write_with_ftab_arrays(
            primed, path, 1, {"lo": lo, "hi": hi, "steps": steps.astype(np.uint8)}
        )
        with pytest.raises(IndexFormatError, match="version 1 is no longer read; rebuild"):
            load_index_flat(path)
        reads = tmp_path / "reads.fq"
        reads.write_text(f"@r\n{small_text[:30]}\n+\n{'I' * 30}\n")
        argv = [command, str(path)]
        if command == "map":
            argv += [str(reads), "-o", str(tmp_path / "hits.tsv")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bwaver-repro index" in err

    def test_rows_past_32_bits_refused_at_export(self, small_index, monkeypatch):
        monkeypatch.setattr(small_index.backend, "n_rows", 2**32)
        with pytest.raises(IndexFormatError, match="32-bit row numbers"):
            export_index(small_index)
        monkeypatch.setattr(small_index.backend, "n_rows", 2**32 - 1)
        export_index(small_index)  # the last row count that fits


class TestValidate:
    def test_clean_table_passes(self, pair):
        _, primed = pair
        checks = validate_index(primed, samples=32).checks
        assert checks["ftab_boundaries"] == 4**K + 1
        assert checks["ftab_tail"] == K - 1
        assert checks["ftab_entries"] > 32

    def test_swapped_boundaries_are_caught(self, pair, tmp_path, capsys):
        from repro.cli import main

        _, primed = pair
        bounds = np.array(primed.ftab.bounds)
        i = int(np.flatnonzero(np.diff(bounds.astype(np.int64)) > 0)[0])
        bounds[[i, i + 1]] = bounds[[i + 1, i]]
        path = tmp_path / "swapped.bwvr"
        _write_with_ftab_arrays(primed, path, FTAB_FORMAT_VERSION, {
            "bounds": bounds, "steps": primed.ftab.steps, "tails": primed.ftab.tails,
        })
        verify_flat_index(path)  # every CRC matches its bytes
        with pytest.raises(IndexValidationError, match="ftab boundaries"):
            validate_index(load_index_flat(path, verify=True))
        assert main(["inspect", str(path), "--validate"]) == 1
        assert "VALIDATION FAILED: ftab boundaries" in capsys.readouterr().err

    def test_wrong_short_suffix_is_caught(self, pair):
        from repro.index.ftab import Ftab

        _, primed = pair
        ftab = primed.ftab
        tails = np.array(ftab.tails)
        tails[0] = (int(tails[0]) + 4 ** (K - 1)) % 4**K
        broken = FMIndex(primed.backend, ftab=Ftab(K, ftab.bounds, ftab.steps, tails))
        with pytest.raises(IndexValidationError, match="short suffixes"):
            validate_index(broken)


class TestPool:
    def test_workers_share_one_ftab_copy(self, pair, small_text, tmp_path):
        from repro.serving.pool import MapperPool

        _, primed = pair
        path = tmp_path / "primed.bwvr"
        save_index_flat(primed, path)
        reads = [
            small_text[15:75],
            small_text[200:260],
            "ACGNACGT",
            "ACG",
            "ACGT" * 12,
        ]
        local = Mapper(primed, locate=True).map_reads(reads)
        with MapperPool(catalog=True, workers=2) as pool:
            (batch,) = pool.map_reads(reads, locate=True, containers=[str(path)])
            remote = sorted(batch, key=lambda r: r.read_id)
        assert len(remote) == len(local)
        for a, b in zip(local, remote):
            fa, fb = a.forward.interval, b.forward.interval
            ra, rb = a.reverse.interval, b.reverse.interval
            assert (fa.start, fa.end, ra.start, ra.end, a.reason) == (
                fb.start, fb.end, rb.start, rb.end, b.reason,
            )


class TestFPGAParity:
    def test_kernel_bit_identical_and_fewer_hw_steps(self, pair, small_text):
        from repro.fpga.accelerator import FPGAAccelerator

        plain, primed = pair
        reads = [small_text[i : i + 40] for i in range(0, 400, 20)]
        reads += ["ACGT" * 10, "ACG", "ACGNACGTACGT"]
        acc_off = FPGAAccelerator.for_index(plain)
        acc_on = FPGAAccelerator.for_index(primed)
        assert "ftab_lut" not in acc_off.kernel.bram.banks
        assert "ftab_lut" in acc_on.kernel.bram.banks
        run_off = acc_off.map_batch(reads)
        run_on = acc_on.map_batch(reads)
        assert np.array_equal(
            run_off.kernel_run.result_array(), run_on.kernel_run.result_array()
        )
        logical_off = [
            (o.fwd_steps, o.rc_steps) for o in run_off.kernel_run.outcomes
        ]
        logical_on = [
            (o.fwd_steps, o.rc_steps) for o in run_on.kernel_run.outcomes
        ]
        assert logical_off == logical_on
        assert run_on.kernel_run.sw_steps_total == run_off.kernel_run.sw_steps_total
        assert run_on.kernel_run.hw_steps_total < run_off.kernel_run.hw_steps_total
        reads_count, _ = acc_on.kernel.bram.traffic()["ftab_lut"]
        assert reads_count > 0

    def test_modeled_time_improves(self, pair, small_text):
        from repro.fpga.accelerator import FPGAAccelerator

        plain, primed = pair
        reads = [small_text[i : i + 60] for i in range(0, 600, 15)]
        off = FPGAAccelerator.for_index(plain).map_batch(reads)
        on = FPGAAccelerator.for_index(primed).map_batch(reads)
        assert on.modeled_kernel_seconds < off.modeled_kernel_seconds


class TestBidirectional:
    def test_search_parity(self, small_text):
        plain = BidirectionalFMIndex(small_text, b=15, sf=8)
        primed = BidirectionalFMIndex(small_text, b=15, sf=8, ftab_k=4)
        pats = battery(small_text) + [small_text[5:9], small_text[60:64]]
        with CounterScope() as scope:
            for pat in pats:
                a = plain.search(pat)
                b = primed.search(pat)
                assert (a.lo, a.hi, a.lo_r, a.hi_r) == (b.lo, b.hi, b.lo_r, b.hi_r), pat
        assert scope.delta["ftab_lookups"] > 0

    def test_one_mismatch_parity(self, small_text):
        plain = BidirectionalFMIndex(small_text, b=15, sf=8)
        primed = BidirectionalFMIndex(small_text, b=15, sf=8, ftab_k=4)
        read = small_text[100:120]
        mutated = read[:10] + ("A" if read[10] != "A" else "C") + read[11:]
        want = {(iv.lo, iv.hi, pos) for iv, pos in plain.search_one_mismatch(mutated)}
        got = {(iv.lo, iv.hi, pos) for iv, pos in primed.search_one_mismatch(mutated)}
        assert got == want


class TestFusedKernels:
    """occ2_many / rank2_many must equal two independent calls."""

    def test_occ2_many_backends(self, small_index, occ_index):
        rng = np.random.default_rng(3)
        for index in (small_index, occ_index):
            backend = index.backend
            n = backend.n_rows
            plo = rng.integers(0, n + 1, size=64)
            phi = rng.integers(0, n + 1, size=64)
            for a in range(4):
                flo, fhi = backend.occ2_many(a, plo, phi)
                assert np.array_equal(flo, backend.occ_many(a, plo))
                assert np.array_equal(fhi, backend.occ_many(a, phi))

    def test_rank2_many_wavelet(self, small_index):
        tree = small_index.backend.tree
        rng = np.random.default_rng(4)
        n = small_index.backend.n_rows
        plo = rng.integers(0, n, size=33)
        phi = rng.integers(0, n, size=33)
        for a in range(4):
            flo, fhi = tree.rank2_many(a, plo, phi)
            want_lo = np.array([tree.rank(a, int(p)) for p in plo])
            want_hi = np.array([tree.rank(a, int(p)) for p in phi])
            assert np.array_equal(flo, want_lo)
            assert np.array_equal(fhi, want_hi)

    def test_rrr_rank1_many_cache_is_memoized(self):
        from repro.core.rrr import RRRVector

        rng = np.random.default_rng(5)
        bits = (rng.random(3000) < 0.4).astype(np.uint8)
        vec = RRRVector(bits, b=15, sf=8)
        assert vec._block_cache is None
        positions = np.arange(0, 3001, 7, dtype=np.int64)
        first = vec.rank1_many(positions)
        cache = vec._block_cache
        assert cache is not None  # built lazily on first call...
        second = vec.rank1_many(positions)
        assert vec._block_cache is cache  # ...and reused, not rebuilt
        assert np.array_equal(first, second)
        want = np.array([vec.rank1(int(p)) for p in positions])
        assert np.array_equal(first, want)
