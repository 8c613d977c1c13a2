"""Index construction: bit-identity, resume, budget.

The contract under test: both entry points of the build stages —
in-memory :func:`repro.index.builder.build_index` and out-of-core
:func:`repro.index.build_stream.build_index_blockwise` — give a flat
container *byte-identical* to ``save_index_flat`` over the monolithic
oracle pipeline (:func:`repro.check.oracles.oracle_index`: SA-IS suffix
array, whole-array BWT and encoders) — for every backend/locate/ftab
combination, any block size, and any kill point followed by
``resume=True``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.check.oracles import oracle_index
from repro.core.global_tables import get_global_tables
from repro.index import build_stream
from repro.index.build_stream import (
    BuildResumeError,
    StreamingRRREncoder,
    build_index_blockwise,
)
from repro.index.builder import build_index
from repro.index.flat import load_index_flat, read_flat_manifest, save_index_flat
from repro.sequence.alphabet import random_sequence


def _mono_bytes(tmp_path, text, **kw):
    """The oracle pipeline's container for ``text``."""
    path = tmp_path / "mono.bwvr"
    save_index_flat(oracle_index(text, **kw), path)
    return path.read_bytes()


def _build_in_memory(text, block_rows=None, **kw):
    """``build_index``; a ``block_rows`` below the budget's row floor is
    reached by lowering the floor and passing the matching ``block_mb``."""
    if block_rows is None:
        return build_index(text, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build_stream, "_MIN_BLOCK_ROWS", 1)
        block_mb = block_rows * build_stream._BYTES_PER_ROW / (1 << 20)
        return build_index(text, block_mb=block_mb, **kw)


def _in_memory_bytes(tmp_path, text, **kw):
    path = tmp_path / "mem.bwvr"
    index, _ = _build_in_memory(text, **kw)
    save_index_flat(index, path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Blockwise == monolithic, bit for bit.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed,n,block_rows", [
    (0, 1, 1024),
    (1, 7, 1024),
    (2, 500, 64),
    (3, 3_000, 128),
    (4, 3_000, 1024),
    (5, 20_000, 4096),
])
def test_blockwise_matches_monolithic_bytes(tmp_path, seed, n, block_rows):
    rng = np.random.default_rng(seed)
    text = random_sequence(n, rng)
    mono = _mono_bytes(tmp_path, text)
    out = tmp_path / "blk.bwvr"
    report = build_index_blockwise(text, out, block_rows=block_rows)
    assert out.read_bytes() == mono
    assert _in_memory_bytes(tmp_path, text, block_rows=block_rows) == mono
    assert not report.resumed
    assert report.text_length == n
    assert set(report.stage_seconds) == {"sa", "bwt", "encode", "finalize"}


def _repeat_text(kind: str) -> str:
    """Texts whose suffixes stay tied long after the seed round."""
    rng = np.random.default_rng(61)
    if kind == "homopolymer":
        return "A" * 5_000
    if kind == "period3":
        return ("ACG" * 1_700)[:5_000]
    if kind == "period37":
        return (random_sequence(37, rng) * 140)[:5_000]
    return random_sequence(3_000, rng) * 3  # a 3 kbp segment, three times


@pytest.mark.parametrize("block_rows", [64, 1024, 16_384])
@pytest.mark.parametrize("kind", ["homopolymer", "period3", "period37", "segment_x3"])
def test_blockwise_matches_monolithic_on_repeats(tmp_path, kind, block_rows):
    """Refinement rounds that spill (more tied rows than ``block_rows``:
    2.3k-9k rows stay tied until the last round) and rounds that fit in
    one block (16k rows) both give the monolithic bytes."""
    text = _repeat_text(kind)
    mono = _mono_bytes(tmp_path, text)
    out = tmp_path / "blk.bwvr"
    labels: list[str] = []
    build_index_blockwise(text, out, block_rows=block_rows, checkpoint_callback=labels.append)
    assert out.read_bytes() == mono
    assert _in_memory_bytes(tmp_path, text, block_rows=block_rows) == mono
    # The seed round resolves 21 symbols; these repeats need refinement.
    assert labels[1] == "sa:seed" and "sa:round2" in labels


@pytest.mark.parametrize("backend", ["rrr", "occ"])
@pytest.mark.parametrize("locate,ftab_k", [
    ("full", None),
    ("sampled", 3),
    ("none", None),
])
def test_blockwise_matches_across_configs(tmp_path, backend, locate, ftab_k):
    rng = np.random.default_rng(11)
    text = random_sequence(4_000, rng)
    kw = dict(backend=backend, locate=locate, ftab_k=ftab_k)
    mono = _mono_bytes(tmp_path, text, **kw)
    out = tmp_path / "blk.bwvr"
    build_index_blockwise(text, out, block_rows=256, **kw)
    assert out.read_bytes() == mono
    assert _in_memory_bytes(tmp_path, text, block_rows=256, **kw) == mono
    assert _in_memory_bytes(tmp_path, text, **kw) == mono


def test_many_runs_merge_in_bounded_passes(tmp_path):
    """At 64 rows per block a 9 kbp text spills 141 seed runs: far more
    than one merge window can hold a row of each.  The fan-in-limited
    passes keep the build fast, and the bytes are the oracle's."""
    text = _repeat_text("segment_x3")
    mono = _mono_bytes(tmp_path, text)
    get_global_tables(15)  # process-wide, built once outside the timing
    out = tmp_path / "blk.bwvr"
    t0 = time.perf_counter()
    build_index_blockwise(text, out, block_rows=64)
    assert time.perf_counter() - t0 <= 0.5
    assert out.read_bytes() == mono
    t0 = time.perf_counter()
    index, _ = _build_in_memory(text, block_rows=64)
    assert time.perf_counter() - t0 <= 0.5
    save_index_flat(index, tmp_path / "mem.bwvr")
    assert (tmp_path / "mem.bwvr").read_bytes() == mono


@pytest.mark.parametrize("locate", ["sampled", "none"])
def test_in_memory_build_keeps_no_suffix_array(tmp_path, locate):
    """A sampled or locate-free index holds neither the SA nor the raw
    BWT codes, only what its container stores."""
    text = random_sequence(3_000, np.random.default_rng(71))
    index, _ = build_index(text, locate=locate, sa_sample_rate=8)
    assert index.backend.bwt is None
    save_index_flat(index, tmp_path / "x.bwvr")
    assert (tmp_path / "x.bwvr").read_bytes() == _mono_bytes(
        tmp_path, text, locate=locate, sa_sample_rate=8
    )


def test_in_memory_build_writes_no_file(tmp_path, monkeypatch):
    """Without a work directory nothing touches the file system: no
    state, checkpoint or spill file."""
    import builtins

    text = _repeat_text("period37")
    mono = _mono_bytes(tmp_path, text, locate="sampled", ftab_k=3)

    def no_files(*args, **kwargs):
        raise AssertionError(f"file opened: {args[:2]}")

    monkeypatch.setattr(builtins, "open", no_files)
    monkeypatch.setattr(np, "memmap", no_files)
    index, report = _build_in_memory(text, block_rows=256, locate="sampled", ftab_k=3)
    monkeypatch.undo()
    assert set(report.stage_seconds) == {"sa", "bwt", "encode", "finalize"}
    save_index_flat(index, tmp_path / "mem.bwvr")
    assert (tmp_path / "mem.bwvr").read_bytes() == mono


@pytest.mark.parametrize("blockwise", [False, True])
def test_one_build_telemetry(tmp_path, blockwise):
    """Both entry points open ``index.build`` with one child span per
    stage, count one build and time every stage under one label set."""
    import io

    from repro.telemetry import Telemetry, set_telemetry

    tel = set_telemetry(Telemetry(enabled=True, log_stream=io.StringIO()))
    text = random_sequence(2_000, np.random.default_rng(5))
    if blockwise:
        build_index_blockwise(text, tmp_path / "x.bwvr", locate="sampled", ftab_k=2)
    else:
        build_index(text, locate="sampled", ftab_k=2)
    names = {e["name"] for e in tel.tracer.chrome_events() if e.get("ph") == "X"}
    stages = ("sa", "bwt", "encode", "finalize")
    assert names == {"index.build", *(f"index.{stage}" for stage in stages)}
    text = tel.metrics.prometheus_text()
    assert "index_builds_total 1" in text
    for stage in stages:
        assert f'index_build_stage_seconds_count{{stage="{stage}"}} 1' in text
    assert text.count("index_build_stage_seconds_count{") == len(stages)


@pytest.mark.parametrize("k", [1, 7, 32])
def test_blockwise_sampled_marks_match(tmp_path, k):
    """The marks and samples streamed from the SA pass over many chunks
    equal the monolithic ones, also after a kill in the BWT stage."""
    text = random_sequence(3_000, np.random.default_rng(50 + k))
    kw = dict(locate="sampled", sa_sample_rate=k)
    mono = _mono_bytes(tmp_path, text, **kw)
    out = tmp_path / "blk.bwvr"
    build_index_blockwise(text, out, block_rows=97, **kw)
    assert out.read_bytes() == mono

    def killer(label):
        if label == "bwt":
            raise _Kill(label)

    resumed = tmp_path / "resumed.bwvr"
    with pytest.raises(_Kill):
        build_index_blockwise(text, resumed, block_rows=97, checkpoint_callback=killer, **kw)
    assert build_index_blockwise(text, resumed, block_rows=97, resume=True, **kw).resumed
    assert resumed.read_bytes() == mono


def test_blockwise_segment_crcs_match(tmp_path):
    """Per-segment CRCs in the manifests agree, not just the whole file."""
    rng = np.random.default_rng(21)
    text = random_sequence(5_000, rng)
    mono_path = tmp_path / "mono.bwvr"
    save_index_flat(oracle_index(text, locate="sampled", ftab_k=2), mono_path)
    blk_path = tmp_path / "blk.bwvr"
    build_index_blockwise(
        text, blk_path, locate="sampled", ftab_k=2, block_rows=512
    )
    mono_meta, mono_segs, _ = read_flat_manifest(
        np.memmap(mono_path, dtype=np.uint8, mode="r")
    )
    blk_meta, blk_segs, _ = read_flat_manifest(
        np.memmap(blk_path, dtype=np.uint8, mode="r")
    )
    assert mono_meta == blk_meta
    assert mono_segs == blk_segs


def test_blockwise_search_intervals_match(tmp_path):
    rng = np.random.default_rng(31)
    text = random_sequence(3_000, rng)
    index = oracle_index(text, ftab_k=3)
    out = tmp_path / "blk.bwvr"
    build_index_blockwise(text, out, ftab_k=3, block_rows=128)
    loaded = load_index_flat(out)
    for _ in range(50):
        start = int(rng.integers(0, len(text) - 20))
        pattern = text[start : start + 20]
        a = index.search(pattern)
        b = loaded.search(pattern)
        assert (a.start, a.end) == (b.start, b.end)
        assert sorted(index.locate(pattern)) == sorted(loaded.locate(pattern))


def test_blockwise_work_dir_removed_and_kept(tmp_path):
    text = random_sequence(800, np.random.default_rng(0))
    out = tmp_path / "a.bwvr"
    build_index_blockwise(text, out, block_rows=64)
    assert not (tmp_path / "a.bwvr.build").exists()
    out2 = tmp_path / "b.bwvr"
    build_index_blockwise(text, out2, block_rows=64, keep_work_dir=True)
    assert (tmp_path / "b.bwvr.build" / "state.json").exists()


def test_blockwise_rejects_bad_options(tmp_path):
    text = "ACGT" * 50
    with pytest.raises(ValueError):
        build_index_blockwise(text, tmp_path / "x.bwvr", backend="nope")
    with pytest.raises(ValueError):
        build_index_blockwise(text, tmp_path / "x.bwvr", locate="nope")
    assert not (tmp_path / "x.bwvr.build").exists()


# ---------------------------------------------------------------------------
# Kill mid-build, resume, bit-identical result.
# ---------------------------------------------------------------------------


class _Kill(Exception):
    pass


def _checkpoint_labels(tmp_path, text, **kw):
    labels: list[str] = []
    build_index_blockwise(
        text, tmp_path / "probe.bwvr", checkpoint_callback=labels.append, **kw
    )
    return labels


def test_resume_after_kill_at_every_checkpoint(tmp_path):
    rng = np.random.default_rng(7)
    text = random_sequence(4_000, rng)
    kw = dict(locate="sampled", ftab_k=2, block_rows=256)
    mono = _mono_bytes(tmp_path, text, locate="sampled", ftab_k=2)
    labels = _checkpoint_labels(tmp_path, text, **kw)
    assert labels[0] == "init" and labels[-1] == "finalize"
    assert "sa" in labels and "bwt" in labels and "encode" in labels
    for kill_at in range(len(labels)):
        out = tmp_path / f"kill{kill_at}.bwvr"
        seen = [0]

        def killer(label, kill_at=kill_at, seen=seen):
            seen[0] += 1
            if seen[0] == kill_at + 1:
                raise _Kill(label)

        with pytest.raises(_Kill):
            build_index_blockwise(text, out, checkpoint_callback=killer, **kw)
        report = build_index_blockwise(text, out, resume=True, **kw)
        assert report.resumed
        assert out.read_bytes() == mono


def test_resume_after_kill_at_every_checkpoint_on_repeats(tmp_path):
    """Killed after any refinement round, the build resumes from that
    round's rank and tied-row checkpoint."""
    text = _repeat_text("period37")
    kw = dict(locate="sampled", block_rows=256)
    mono = _mono_bytes(tmp_path, text, locate="sampled")
    labels = _checkpoint_labels(tmp_path, text, **kw)
    assert sum(label.startswith("sa:round") for label in labels) >= 3
    for kill_at in range(len(labels)):
        out = tmp_path / f"kill{kill_at}.bwvr"
        seen = [0]

        def killer(label, kill_at=kill_at, seen=seen):
            seen[0] += 1
            if seen[0] == kill_at + 1:
                raise _Kill(label)

        with pytest.raises(_Kill):
            build_index_blockwise(text, out, checkpoint_callback=killer, **kw)
        assert build_index_blockwise(text, out, resume=True, **kw).resumed
        assert out.read_bytes() == mono


def test_resume_of_finished_build_is_idempotent(tmp_path):
    text = random_sequence(1_500, np.random.default_rng(9))
    out = tmp_path / "x.bwvr"
    build_index_blockwise(text, out, block_rows=128, keep_work_dir=True)
    first = out.read_bytes()
    report = build_index_blockwise(
        text, out, block_rows=128, resume=True, keep_work_dir=True
    )
    assert report.resumed
    assert out.read_bytes() == first


def test_resume_fingerprint_mismatch_raises(tmp_path):
    text = random_sequence(2_000, np.random.default_rng(13))
    out = tmp_path / "x.bwvr"

    def killer(label):
        if label == "sa":
            raise _Kill(label)

    with pytest.raises(_Kill):
        build_index_blockwise(text, out, block_rows=256, checkpoint_callback=killer)
    # Different block size -> different fingerprint.
    with pytest.raises(BuildResumeError):
        build_index_blockwise(text, out, block_rows=128, resume=True)
    # Different input text, same options.
    other = random_sequence(2_000, np.random.default_rng(14))
    with pytest.raises(BuildResumeError):
        build_index_blockwise(other, out, block_rows=256, resume=True)
    # Same input and options, written by an older builder version.
    state_path = tmp_path / "x.bwvr.build" / "state.json"
    state = json.loads(state_path.read_text())
    for version in (1, 2):
        state_path.write_text(json.dumps({**state, "version": version}))
        with pytest.raises(BuildResumeError, match="builder version"):
            build_index_blockwise(text, out, block_rows=256, resume=True)


def test_resume_detects_corrupted_checkpoint(tmp_path):
    text = random_sequence(2_000, np.random.default_rng(17))
    out = tmp_path / "x.bwvr"

    def killer(label):
        if label == "sa":
            raise _Kill(label)

    with pytest.raises(_Kill):
        build_index_blockwise(text, out, block_rows=256, checkpoint_callback=killer)
    sa_bin = tmp_path / "x.bwvr.build" / "sa.bin"
    data = bytearray(sa_bin.read_bytes())
    data[100] ^= 0xFF
    sa_bin.write_bytes(bytes(data))
    with pytest.raises(BuildResumeError):
        build_index_blockwise(text, out, block_rows=256, resume=True)


def test_resume_detects_corrupted_tied_rows(tmp_path):
    text = _repeat_text("period3")
    out = tmp_path / "x.bwvr"

    def killer(label):
        if label == "sa:round2":
            raise _Kill(label)

    with pytest.raises(_Kill):
        build_index_blockwise(text, out, block_rows=256, checkpoint_callback=killer)
    work = tmp_path / "x.bwvr.build"
    assert json.loads((work / "state.json").read_text())["tied_file"] == "tied_2.bin"
    tied = work / "tied_2.bin"
    data = bytearray(tied.read_bytes())
    data[8] ^= 0x01
    tied.write_bytes(bytes(data))
    with pytest.raises(BuildResumeError, match="tied-row checkpoint"):
        build_index_blockwise(text, out, block_rows=256, resume=True)


def test_fresh_build_overwrites_stale_work_dir(tmp_path):
    """Without resume=True a leftover work dir is discarded, not trusted."""
    text = random_sequence(1_000, np.random.default_rng(23))
    out = tmp_path / "x.bwvr"

    def killer(label):
        if label == "bwt":
            raise _Kill(label)

    with pytest.raises(_Kill):
        build_index_blockwise(text, out, block_rows=128, checkpoint_callback=killer)
    mono = _mono_bytes(tmp_path, text)
    report = build_index_blockwise(text, out, block_rows=128)
    assert not report.resumed
    assert out.read_bytes() == mono


# ---------------------------------------------------------------------------
# Memory budget.
# ---------------------------------------------------------------------------


def test_blockwise_peak_alloc_at_least_3x_below_monolithic(tmp_path):
    import tracemalloc

    rng = np.random.default_rng(41)
    text = random_sequence(250_000, rng)
    get_global_tables(15)  # shared process-wide tables, outside both peaks
    mono_path = tmp_path / "mono.bwvr"
    tracemalloc.start()
    index = oracle_index(text)
    save_index_flat(index, mono_path)
    mono_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del index
    out = tmp_path / "blk.bwvr"
    report = build_index_blockwise(
        text, out, block_rows=16_384, measure_peak=True
    )
    assert out.read_bytes() == mono_path.read_bytes()
    assert report.peak_alloc_bytes > 0
    assert mono_peak / report.peak_alloc_bytes >= 3.0
    # An absolute bound as well, so the builder cannot grow behind the
    # oracle's larger peak: its int64 rank array (8 B per text row) plus
    # twice the block budget (``_BYTES_PER_ROW`` per block row).  2.56 MB
    # here against a 3.57 MB bound.
    budget = 8 * (len(text) + 1) + 2 * build_stream._BYTES_PER_ROW * 16_384
    assert report.peak_alloc_bytes <= budget


def test_block_mb_budget_derives_block_rows(tmp_path):
    """Tiny budgets clamp to the floor and still build correctly."""
    text = random_sequence(2_000, np.random.default_rng(43))
    mono = _mono_bytes(tmp_path, text)
    out = tmp_path / "blk.bwvr"
    build_index_blockwise(text, out, block_mb=0.001)
    assert out.read_bytes() == mono


# ---------------------------------------------------------------------------
# StreamingRRREncoder vs the batch RRRVector builder.
# ---------------------------------------------------------------------------


def _feed_in_pieces(enc, bits, rng):
    i = 0
    while i < bits.size:
        step = int(rng.integers(1, 97))
        enc.feed(bits[i : i + step])
        i += step


@pytest.mark.parametrize("b,sf", [(15, 50), (15, 32), (7, 4), (3, 2)])
@pytest.mark.parametrize("n", [0, 1, 14, 15, 16, 449, 450, 451, 10_000])
def test_streaming_rrr_matches_batch(b, sf, n):
    from repro.core.rrr import RRRVector

    rng = np.random.default_rng(b * 1000 + n)
    bits = rng.integers(0, 2, size=n).astype(np.uint8)
    batch = RRRVector(bits, b=b, sf=sf)
    bmeta, barrays = batch.export_arrays()
    enc = StreamingRRREncoder(b=b, sf=sf)
    _feed_in_pieces(enc, bits, rng)
    smeta, sarrays = enc.finalize()
    assert smeta == bmeta
    assert set(sarrays) == set(barrays)
    for key in barrays:
        got, want = sarrays[key], barrays[key]
        assert got.dtype == want.dtype, key
        np.testing.assert_array_equal(got, want, err_msg=key)


def test_streaming_rrr_rejects_bad_params():
    with pytest.raises(ValueError):
        StreamingRRREncoder(b=0)
    with pytest.raises(ValueError):
        StreamingRRREncoder(b=15, sf=0)


# ---------------------------------------------------------------------------
# Report JSON-safety (throughput fields must serialize).
# ---------------------------------------------------------------------------


def test_report_round_trips_through_json(tmp_path):
    text = random_sequence(1_200, np.random.default_rng(3))
    out = tmp_path / "x.bwvr"
    report = build_index_blockwise(text, out, block_rows=128)
    doc = json.dumps(report.__dict__)
    back = json.loads(doc)
    assert back["resumed"] is False
    assert back["stage_seconds"]["sa"] >= 0.0
