"""Out-of-core (blockwise) index construction with a bounded memory budget.

:func:`repro.index.builder.build_index` materializes the suffix array,
the BWT and every encoder intermediate in RAM at once — fine for the
paper's bacterial references, hopeless for chromosome-scale ones.  This
module rebuilds the same pipeline as a streaming, resumable sequence of
on-disk stages so that peak resident memory stays
``O(block + rank array)`` instead of ``O(many full-size temporaries)``:

1. **Blockwise suffix array** — prefix-doubling where each round sorts
   fixed-size blocks independently (numpy ``argsort`` per block, sorted
   runs spilled to disk) and then k-way merges the runs with a bounded
   number of in-flight rows.  Ranks for the next round are reassigned
   *during* the merge, so no full-size sort key ever exists in memory.
   The monolithic ``suffix_array(..., method="doubling")`` remains the
   differential oracle.
2. **Streaming BWT emission** — one chunked pass over the on-disk SA
   producing ``bwt.bin`` plus symbol counts, run statistics and entropy.
3. **Incremental encoding** — a streaming RRR encoder (bit-identical to
   :class:`repro.core.rrr.RRRVector`'s batch ``_build``) feeds the three
   wavelet-tree nodes in one pass over the on-disk BWT; the ``occ``
   backend variant packs 2-bit words and checkpoint rows the same way.
4. **Finalize** — the encoded segments are rehydrated as memory-mapped
   arrays through the canonical ``from_arrays`` constructors and written
   with :func:`repro.index.flat.save_index_flat` (whose
   :class:`~repro.index.flat.FlatWriter` streams segments to disk), so
   the container is *byte-identical* to a monolithic build's.

Every stage ends with an atomic ``state.json`` checkpoint (CRC-verified
payload files), so a killed build resumes with ``resume=True`` and the
finished container is bit-identical to a cold build.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import tracemalloc
import zlib
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.bitio import IncrementalBitPacker
from ..core.bwt_structure import BWTStructure
from ..core.global_tables import encode_offsets, get_global_tables, popcount_block
from ..core.rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR
from ..sequence.alphabet import encode
from ..sequence.bwt import BWT
from ..sequence.sampled_sa import MARK_B, MARK_SF, FullSA, SampledSA
from ..telemetry import get_telemetry
from .builder import BuildReport
from .flat import save_index_flat
from .fm_index import FMIndex
from .ftab import Ftab
from .occ_table import BASES_PER_WORD, OccTable, pack_2bit

SIGMA = 4

_STATE_NAME = "state.json"
#: Version of ``state.json`` and the work files it names; 2 added the
#: sampled-locate marks and samples written by the BWT stage.
_STATE_VERSION = 2

#: Rough bytes of resident working set per suffix-array row in the
#: doubling rounds: the persistent int64 rank array (8 B/row) plus the
#: per-block key/order/second temporaries (3 x 8 B over one block) and
#: merge gather buffers, amortized.  ``block_rows = budget / 48`` keeps
#: the *variable* part of the footprint near the requested budget.
_BYTES_PER_ROW = 48


#: The arrays of one encoded RRR vector, as ``StreamingRRREncoder.finalize``
#: returns them and the work directory stores them.
_RRR_ARRAYS = ("classes", "partial_sums", "offset_words", "offset_sums")

#: Rows per chunk of the streaming CRC below (bounds its transient copy).
_CRC_CHUNK_ROWS = 1 << 16


def _crc_stream(arr: np.ndarray) -> int:
    """``faults.crc32_of`` computed chunkwise.

    zlib's CRC32 is rolling, so hashing a contiguous array in slices
    yields the same value as one shot over ``tobytes()`` — without the
    full-size bytes copy that would dominate the blockwise builder's
    peak footprint.
    """
    arr = np.ascontiguousarray(arr).reshape(-1)
    crc = 0
    for lo in range(0, arr.size, _CRC_CHUNK_ROWS):
        crc = zlib.crc32(arr[lo : lo + _CRC_CHUNK_ROWS].tobytes(), crc)
    return crc & 0xFFFFFFFF


class BuildResumeError(RuntimeError):
    """A blockwise build could not be resumed from its work directory.

    Raised when the on-disk state belongs to a different input or
    configuration (fingerprint mismatch) or when a checkpoint payload
    fails its CRC — in both cases the safe path is a cold rebuild.
    """


# --------------------------------------------------------------------------
# Streaming encoders.
# --------------------------------------------------------------------------


class StreamingRRREncoder:
    """Incrementally build one RRR bit-vector from streamed bit chunks.

    Produces exactly the arrays of :meth:`repro.core.rrr.RRRVector._build`
    — same classes, same packed offsets, same superblock partial sums —
    without ever holding the whole bit-vector: only a sub-block tail and
    the growing (already succinct) output live in memory.
    """

    def __init__(
        self,
        b: int = DEFAULT_BLOCK_SIZE,
        sf: int = DEFAULT_SUPERBLOCK_FACTOR,
    ) -> None:
        if b < 1 or b > 24:
            raise ValueError("block size b must be in [1, 24]")
        if sf < 1:
            raise ValueError("superblock factor must be >= 1")
        self.b = int(b)
        self.sf = int(sf)
        self.tables = get_global_tables(self.b)
        self._weights = np.int64(1) << np.arange(self.b, dtype=np.int64)
        self._pending = np.zeros(0, dtype=np.uint8)
        self._packer = IncrementalBitPacker()
        self._classes: list[np.ndarray] = []
        self.n = 0
        self._blocks_done = 0
        self._ones_total = 0
        self._width_total = 0
        # Superblock-boundary prefix sums recorded the moment each
        # boundary is crossed (ones resp. offset bits before block j*sf).
        self._cross_psums: list[int] = []
        self._cross_osums: list[int] = []

    def feed(self, bits: np.ndarray) -> None:
        """Append a chunk of 0/1 values to the logical bit-vector."""
        bits = np.asarray(bits, dtype=np.uint8)
        self.n += int(bits.size)
        if self._pending.size:
            bits = np.concatenate([self._pending, bits])
        n_full = bits.size // self.b
        if n_full:
            self._encode_blocks(bits[: n_full * self.b])
        self._pending = bits[n_full * self.b :].copy()

    def _encode_blocks(self, bits: np.ndarray) -> None:
        b, sf = self.b, self.sf
        block_bits = bits.reshape(-1, b)
        values = block_bits.astype(np.int64) @ self._weights
        classes = popcount_block(values, b)
        offsets = encode_offsets(values, b, self.tables.binomials)
        widths = self.tables.widths[classes]
        self._classes.append(classes.astype(np.uint8))
        self._packer.append(offsets.astype(np.uint64), widths.astype(np.int64))
        cls_cum = np.cumsum(classes, dtype=np.int64)
        w_cum = np.cumsum(widths.astype(np.int64))
        start = self._blocks_done
        k = int(classes.size)
        # Boundaries j*sf with start < j*sf <= start + k are crossed by
        # this chunk; record the prefix sums *before* each boundary.
        first = start // sf + 1
        last = (start + k) // sf
        for j in range(first, last + 1):
            at = j * sf - start
            self._cross_psums.append(self._ones_total + int(cls_cum[at - 1]))
            self._cross_osums.append(self._width_total + int(w_cum[at - 1]))
        self._blocks_done += k
        self._ones_total += int(cls_cum[-1])
        self._width_total += int(w_cum[-1])

    def finalize(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Close the stream; return RRR ``(meta, arrays)`` per the flat schema."""
        if self._pending.size:
            # Zero-pad the trailing partial block, exactly like the batch
            # builder's whole-superblock padding (padding blocks beyond
            # n_blocks are dropped there, so none are emitted here).
            block = np.zeros(self.b, dtype=np.uint8)
            block[: self._pending.size] = self._pending
            self._pending = np.zeros(0, dtype=np.uint8)
            self._encode_blocks(block)
        n_blocks = self._blocks_done
        n_super = (n_blocks + self.sf - 1) // self.sf
        psums = [0] + self._cross_psums
        if len(psums) < n_super + 1:
            psums.append(self._ones_total)
        psums_arr = np.asarray(psums, dtype=np.int64)
        if psums_arr.size and int(psums_arr.max()) > np.iinfo(np.uint32).max:
            raise ValueError("bit-vector too long for 32-bit partial sums")
        osums = ([0] + self._cross_osums)[:n_super]
        classes = (
            np.concatenate(self._classes)
            if self._classes
            else np.zeros(0, dtype=np.uint8)
        )
        offset_words, offset_bits = self._packer.finalize()
        meta = {
            "n": int(self.n),
            "b": self.b,
            "sf": self.sf,
            "n_blocks": int(n_blocks),
            "n_superblocks": int(n_super),
            "offset_bits": int(offset_bits),
        }
        arrays = {
            "classes": classes,
            "partial_sums": psums_arr.astype(np.uint32),
            "offset_words": offset_words,
            "offset_sums": np.asarray(osums, dtype=np.int64).astype(np.uint32),
        }
        return meta, arrays


class _StreamingOccEncoder:
    """Streaming variant of :meth:`OccTable.build`: 2-bit words to disk,
    checkpoint rows accumulated per ``32 * checkpoint_words`` symbols."""

    def __init__(self, checkpoint_words: int, words_path: Path) -> None:
        self.cw = int(checkpoint_words)
        self.d_rows = BASES_PER_WORD * self.cw
        self._fh = open(words_path, "wb")
        self._pending = np.zeros(0, dtype=np.uint8)
        self._group_rows: list[np.ndarray] = []
        self._n_words = 0
        self.n_sym = 0

    def feed(self, syms: np.ndarray) -> None:
        syms = np.asarray(syms, dtype=np.uint8)
        self.n_sym += int(syms.size)
        if self._pending.size:
            syms = np.concatenate([self._pending, syms])
        cut = (syms.size // self.d_rows) * self.d_rows
        if cut:
            self._emit(syms[:cut])
        self._pending = syms[cut:].copy()

    def _emit(self, chunk: np.ndarray) -> None:
        # Chunks are whole d_rows groups except the finalize() tail, so
        # pack_2bit's final-word zero padding only ever happens once.
        words = pack_2bit(chunk)
        words.tofile(self._fh)
        self._n_words += int(words.size)
        n_full = chunk.size // self.d_rows
        if n_full:
            g = chunk[: n_full * self.d_rows].reshape(n_full, self.d_rows)
            rows = np.stack(
                [(g == a).sum(axis=1) for a in range(SIGMA)], axis=1
            ).astype(np.int64)
            self._group_rows.append(rows)
        tail = chunk[n_full * self.d_rows :]
        if tail.size:
            counts = np.bincount(tail, minlength=SIGMA)[:SIGMA]
            self._group_rows.append(counts.astype(np.int64)[None, :])

    def finalize(self) -> tuple[int, np.ndarray]:
        """Close the word file; return ``(n_words, checkpoints)``."""
        if self._pending.size:
            self._emit(self._pending)
            self._pending = np.zeros(0, dtype=np.uint8)
        self._fh.close()
        groups = (
            np.concatenate(self._group_rows)
            if self._group_rows
            else np.zeros((0, SIGMA), dtype=np.int64)
        )
        full_cum = np.concatenate(
            [np.zeros((1, SIGMA), dtype=np.int64), np.cumsum(groups, axis=0)]
        )
        n_cp = self._n_words // self.cw + 1
        # Row j is the symbol-count prefix at min(j * d_rows, n_sym) —
        # the same boundary clamping as the batch builder.
        cum = full_cum[np.minimum(np.arange(n_cp), groups.shape[0])]
        if cum.size and cum.max() <= np.iinfo(np.uint32).max:
            checkpoints = cum.astype(np.uint32)
        else:
            checkpoints = cum
        return self._n_words, checkpoints


# --------------------------------------------------------------------------
# Checkpoint plumbing.
# --------------------------------------------------------------------------


def _atomic_write_json(path: Path, doc: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(tmp, path)


def _atomic_save_npy(path: Path, arr: np.ndarray) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        np.save(f, np.ascontiguousarray(arr))
    os.replace(tmp, path)


def _fingerprint(
    codes: np.ndarray,
    *,
    b: int,
    sf: int,
    backend: str,
    locate: str,
    sa_sample_rate: int,
    occ_checkpoint_words: int,
    ftab_k: int | None,
    block_rows: int,
) -> dict:
    return {
        "n": int(codes.size),
        "codes_crc": _crc_stream(codes),
        "b": int(b),
        "sf": int(sf),
        "backend": backend,
        "locate": locate,
        "sa_sample_rate": int(sa_sample_rate),
        "occ_checkpoint_words": int(occ_checkpoint_words),
        "ftab_k": None if ftab_k is None else int(ftab_k),
        "block_rows": int(block_rows),
    }


def _open_state(work: Path, fp: dict, resume: bool) -> tuple[dict, bool]:
    state_path = work / _STATE_NAME
    if not resume and work.exists():
        shutil.rmtree(work)
    if state_path.exists():
        try:
            state = json.loads(state_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BuildResumeError(
                f"unreadable build state at {state_path}: {exc}"
            ) from exc
        if state.get("version") != _STATE_VERSION or state.get("fingerprint") != fp:
            raise BuildResumeError(
                "work directory belongs to a different input, build "
                "configuration or builder version; rebuild without resume"
            )
        return state, True
    work.mkdir(parents=True, exist_ok=True)
    state = {
        "version": _STATE_VERSION,
        "fingerprint": fp,
        "stage": "sa",
        "sa_init": False,
        "sa_round": 0,
        "sa_k": 1,
        "n_distinct": 0,
        "rank_file": None,
        "rank_crc": None,
    }
    return state, False


def _save_rank(work: Path, state: dict, rank: np.ndarray, round_no: int) -> None:
    name = f"rank_{round_no}.npy"
    _atomic_save_npy(work / name, rank)
    state["rank_file"] = name
    state["rank_crc"] = _crc_stream(rank)


def _load_rank(work: Path, state: dict) -> np.ndarray:
    name = state.get("rank_file")
    if not name or not (work / name).exists():
        raise BuildResumeError("missing rank checkpoint; rebuild without resume")
    rank = np.load(work / name)
    if _crc_stream(rank) != state.get("rank_crc"):
        raise BuildResumeError("rank checkpoint failed CRC; rebuild without resume")
    return rank


def _prune_rank_files(work: Path, state: dict) -> None:
    # Older round files are deleted only once the state referencing the
    # new one is durable, so a crash in between always leaves the file
    # the state points at intact.
    keep = state.get("rank_file")
    for p in work.glob("rank_*.npy"):
        if p.name != keep:
            p.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# Stage 1: blockwise suffix array (prefix doubling, external runs).
# --------------------------------------------------------------------------


def _sa_round(
    rank: np.ndarray, k: int, n1: int, block_rows: int, work: Path
) -> int:
    """One doubling round at shift ``k``; rewrites ``sa.bin`` and ``rank``.

    Each block sorts its ``(rank[i], rank[i+k])`` keys independently and
    spills the sorted run; the runs are then merged with at most
    ``~block_rows`` gathered rows in flight.  Ranks for the next round
    are reassigned on the fly as rows are emitted in globally sorted
    order.  Returns the number of distinct ranks after the round.
    """
    key_path = work / "runs_key.bin"
    idx_path = work / "runs_idx.bin"
    run_bounds: list[tuple[int, int]] = []
    pos = 0
    mult = np.int64(n1 + 1)
    with open(key_path, "wb") as kf, open(idx_path, "wb") as xf:
        for lo in range(0, n1, block_rows):
            hi = min(lo + block_rows, n1)
            m = hi - lo
            src = np.arange(lo + k, hi + k, dtype=np.int64)
            second = np.zeros(m, dtype=np.int64)
            in_range = src < n1
            second[in_range] = rank[src[in_range]] + 1
            key = rank[lo:hi] * mult + second
            order = np.argsort(key)
            key[order].tofile(kf)
            (order + np.int64(lo)).tofile(xf)
            run_bounds.append((pos, pos + m))
            pos += m
    keys = np.memmap(key_path, dtype=np.int64, mode="r")
    idxs = np.memmap(idx_path, dtype=np.int64, mode="r")
    cur = np.array([s for s, _ in run_bounds], dtype=np.int64)
    ends = np.array([e for _, e in run_bounds], dtype=np.int64)
    merge_rows = block_rows
    r = -1
    prev_key: int | None = None
    with open(work / "sa.bin", "wb") as sa_f:

        def emit(keys_c: np.ndarray, idx_c: np.ndarray) -> None:
            nonlocal r, prev_key
            if keys_c.size == 0:
                return
            inc = np.empty(keys_c.size, dtype=np.int64)
            inc[0] = 1 if (prev_key is None or int(keys_c[0]) != prev_key) else 0
            if keys_c.size > 1:
                inc[1:] = keys_c[1:] != keys_c[:-1]
            ranks_c = r + np.cumsum(inc)
            # Safe in-place update: the merge reads only the spilled
            # run files, never ``rank`` itself.
            rank[idx_c] = ranks_c
            r = int(ranks_c[-1])
            prev_key = int(keys_c[-1])
            np.ascontiguousarray(idx_c).tofile(sa_f)

        while True:
            active = np.flatnonzero(cur < ends)
            if active.size == 0:
                break
            c_sub = max(1, merge_rows // int(active.size))
            # Pivot: the minimum over active runs of the key closing each
            # run's next c_sub-row window.  Every strictly-smaller key in
            # any run then lies inside that run's window (its window tail
            # is >= pivot), so one bounded gather is globally complete.
            piv: int | None = None
            for j in active:
                e = min(int(cur[j]) + c_sub, int(ends[j]))
                v = int(keys[e - 1])
                if piv is None or v < piv:
                    piv = v
            gathered_k: list[np.ndarray] = []
            gathered_i: list[np.ndarray] = []
            for j in active:
                lo_j = int(cur[j])
                e = min(lo_j + c_sub, int(ends[j]))
                window = keys[lo_j:e]
                cnt = int(np.searchsorted(window, piv, side="left"))
                if cnt:
                    gathered_k.append(np.asarray(window[:cnt]))
                    gathered_i.append(np.asarray(idxs[lo_j : lo_j + cnt]))
                    cur[j] += cnt
            if gathered_k:
                gk = np.concatenate(gathered_k)
                gi = np.concatenate(gathered_i)
                order = np.argsort(gk)
                emit(gk[order], gi[order])
            # Drain keys equal to the pivot from every run.  Equal keys
            # share a rank, so their relative order is irrelevant and no
            # sort is needed; window-bounded slices keep memory flat.
            for j in active:
                while cur[j] < ends[j]:
                    lo_j = int(cur[j])
                    e = min(lo_j + merge_rows, int(ends[j]))
                    window = keys[lo_j:e]
                    cnt = int(np.searchsorted(window, piv, side="right"))
                    if cnt == 0:
                        break
                    emit(np.asarray(window[:cnt]), np.asarray(idxs[lo_j : lo_j + cnt]))
                    cur[j] += cnt
                    if cnt < window.size:
                        break
    del keys, idxs
    key_path.unlink(missing_ok=True)
    idx_path.unlink(missing_ok=True)
    return r + 1


def _stage_sa(
    codes: np.ndarray,
    n1: int,
    block_rows: int,
    work: Path,
    state: dict,
    save_state: Callable[[str], None],
) -> None:
    if not state["sa_init"]:
        s = np.zeros(n1, dtype=np.uint8)
        if n1 > 1:
            s[: n1 - 1] = codes + 1
        counts = np.bincount(s, minlength=1)
        present = np.flatnonzero(counts > 0)
        lut = np.zeros(int(present.max()) + 1, dtype=np.int64)
        lut[present] = np.arange(present.size, dtype=np.int64)
        rank = lut[s]
        del s
        state["n_distinct"] = int(present.size)
        state["sa_init"] = True
        state["sa_round"] = 0
        state["sa_k"] = 1
        _save_rank(work, state, rank, 0)
        save_state("sa:init")
        _prune_rank_files(work, state)
    else:
        rank = _load_rank(work, state)
    while state["n_distinct"] < n1:
        k = int(state["sa_k"])
        n_distinct = _sa_round(rank, k, n1, block_rows, work)
        round_no = int(state["sa_round"]) + 1
        _save_rank(work, state, rank, round_no)
        state["sa_round"] = round_no
        state["sa_k"] = k * 2
        state["n_distinct"] = n_distinct
        save_state(f"sa:round{round_no}")
        _prune_rank_files(work, state)
    if int(state["sa_round"]) == 0:
        # Tiny inputs where first characters already distinguish every
        # suffix: no doubling round ran, so emit the SA directly.
        sa = np.argsort(rank, kind="stable").astype(np.int64)
        with open(work / "sa.bin", "wb") as f:
            sa.tofile(f)
    sa_mm = np.memmap(work / "sa.bin", dtype=np.int64, mode="r")
    state["sa_crc"] = _crc_stream(sa_mm)
    del sa_mm
    state["stage"] = "bwt"
    save_state("sa")


# --------------------------------------------------------------------------
# Stage 2: streaming BWT emission.
# --------------------------------------------------------------------------


def _stage_bwt(
    codes: np.ndarray,
    n1: int,
    block_rows: int,
    work: Path,
    state: dict,
    save_state: Callable[[str], None],
    sample_rate: int | None,
) -> None:
    """Emit the BWT from ``sa.bin``; with a ``sample_rate`` k, also the
    sampled-SA marks (``sa % k == 0``, streamed into an RRR encoder) and
    the ``uint32`` quotients ``sa // k`` of the marked rows."""
    sa_mm = np.memmap(work / "sa.bin", dtype=np.int64, mode="r")
    if sa_mm.size != n1 or _crc_stream(sa_mm) != state.get("sa_crc"):
        raise BuildResumeError(
            "suffix-array checkpoint failed CRC; rebuild without resume"
        )
    counts = np.zeros(SIGMA, dtype=np.int64)
    dollar_pos = -1
    runs = 0
    max_run = 0
    cur_len = 0
    prev_sym = -1
    marks = StreamingRRREncoder(MARK_B, MARK_SF) if sample_rate else None
    with open(work / "bwt.bin", "wb") as f, (
        open(work / "samples.bin", "wb") if marks is not None else nullcontext()
    ) as fs:
        for lo in range(0, n1, block_rows):
            hi = min(lo + block_rows, n1)
            sa_c = np.asarray(sa_mm[lo:hi])
            if marks is not None:
                marked = sa_c % sample_rate == 0
                marks.feed(marked.view(np.uint8))
                (sa_c[marked] // sample_rate).astype(np.uint32).tofile(fs)
            if codes.size:
                out = codes[np.where(sa_c > 0, sa_c - 1, 0)].astype(np.uint8)
            else:
                out = np.zeros(sa_c.size, dtype=np.uint8)
            z = np.flatnonzero(sa_c == 0)
            if z.size:
                dollar_pos = lo + int(z[0])
                out[z[0]] = 0  # placeholder, same as bwt_from_codes
            out.tofile(f)
            syms = np.delete(out, z[0]) if z.size else out
            if syms.size == 0:
                continue
            counts += np.bincount(syms, minlength=SIGMA)[:SIGMA]
            # Run-length stats with a carry across chunk boundaries.
            change = np.flatnonzero(np.diff(syms.astype(np.int64)) != 0)
            starts = np.concatenate(([0], change + 1))
            stops = np.concatenate((change + 1, [syms.size]))
            lengths = (stops - starts).astype(np.int64)
            if prev_sym == int(syms[0]):
                lengths[0] += cur_len
            elif prev_sym >= 0:
                runs += 1
                max_run = max(max_run, cur_len)
            if lengths.size > 1:
                runs += int(lengths.size) - 1
                max_run = max(max_run, int(lengths[:-1].max()))
            cur_len = int(lengths[-1])
            prev_sym = int(syms[-1])
    if prev_sym >= 0:
        runs += 1
        max_run = max(max_run, cur_len)
    del sa_mm
    if marks is not None:
        marks_meta, marks_arrays = marks.finalize()
        for name, arr in marks_arrays.items():
            _atomic_save_npy(work / f"marks_{name}.npy", arr)
        state["marks_meta"] = marks_meta
    n_sym = int(counts.sum())
    if n_sym:
        probs = counts[counts > 0] / n_sym
        entropy = float(-(probs * np.log2(probs)).sum())
        run_stats = {
            "runs": int(runs),
            "mean_run": n_sym / runs,
            "max_run": int(max_run),
        }
    else:
        entropy = 0.0
        run_stats = {"runs": 0, "mean_run": 0.0, "max_run": 0}
    bwt_mm = np.memmap(work / "bwt.bin", dtype=np.uint8, mode="r")
    state["bwt_crc"] = _crc_stream(bwt_mm)
    del bwt_mm
    state["dollar_pos"] = int(dollar_pos)
    state["counts"] = [int(c) for c in counts]
    state["bwt_entropy0"] = entropy
    state["bwt_runs"] = run_stats
    state["stage"] = "encode"
    save_state("bwt")


# --------------------------------------------------------------------------
# Stage 3: incremental wavelet/RRR or Occ-checkpoint encoding.
# --------------------------------------------------------------------------


def _open_bwt(work: Path, n1: int, state: dict) -> np.memmap:
    bwt_mm = np.memmap(work / "bwt.bin", dtype=np.uint8, mode="r")
    if bwt_mm.size != n1 or _crc_stream(bwt_mm) != state.get("bwt_crc"):
        raise BuildResumeError("BWT checkpoint failed CRC; rebuild without resume")
    return bwt_mm


def _sentinel_free_chunks(bwt_mm: np.memmap, n1: int, dollar: int, chunk_rows: int):
    for lo in range(0, n1, chunk_rows):
        hi = min(lo + chunk_rows, n1)
        chunk = np.asarray(bwt_mm[lo:hi])
        if lo <= dollar < hi:
            chunk = np.delete(chunk, dollar - lo)
        yield chunk


def _stage_encode(
    n1: int,
    block_rows: int,
    work: Path,
    state: dict,
    save_state: Callable[[str], None],
    *,
    b: int,
    sf: int,
    backend: str,
    occ_checkpoint_words: int,
) -> None:
    bwt_mm = _open_bwt(work, n1, state)
    dollar = int(state["dollar_pos"])
    if backend == "rrr":
        # One pass feeds all three wavelet-tree nodes (sigma=4, balanced
        # tree: root splits {A,C}|{G,T}, leaves split within each pair).
        encs = [StreamingRRREncoder(b, sf) for _ in range(3)]
        for chunk in _sentinel_free_chunks(bwt_mm, n1, dollar, block_rows):
            right = chunk >= 2
            encs[0].feed(right.astype(np.uint8))
            encs[1].feed((chunk[~right] == 1).astype(np.uint8))
            encs[2].feed((chunk[right] == 3).astype(np.uint8))
        node_metas = []
        for i, enc in enumerate(encs):
            meta_i, arrays_i = enc.finalize()
            for name, arr in arrays_i.items():
                _atomic_save_npy(work / f"node{i}_{name}.npy", arr)
            node_metas.append(meta_i)
        state["node_metas"] = node_metas
    else:
        occ = _StreamingOccEncoder(occ_checkpoint_words, work / "occ_words.bin")
        for chunk in _sentinel_free_chunks(bwt_mm, n1, dollar, block_rows):
            occ.feed(chunk)
        n_words, checkpoints = occ.finalize()
        _atomic_save_npy(work / "occ_checkpoints.npy", checkpoints)
        state["occ_n_words"] = int(n_words)
        state["occ_n_sym"] = int(occ.n_sym)
    del bwt_mm
    state["stage"] = "finalize"
    save_state("encode")


# --------------------------------------------------------------------------
# Stage 4: finalize through the canonical constructors + flat writer.
# --------------------------------------------------------------------------


def _stage_finalize(
    n1: int,
    work: Path,
    state: dict,
    out_path: Path,
    *,
    b: int,
    sf: int,
    backend: str,
    locate: str,
    sa_sample_rate: int,
    occ_checkpoint_words: int,
    ftab_k: int | None,
):
    dollar = int(state["dollar_pos"])
    bwt = BWT(
        codes=np.memmap(work / "bwt.bin", dtype=np.uint8, mode="r"),
        dollar_pos=dollar,
        sa=np.memmap(work / "sa.bin", dtype=np.int64, mode="r"),
    )
    counts = np.asarray(state["counts"], dtype=np.int64)
    C = np.zeros(SIGMA + 1, dtype=np.int64)
    C[0] = 1
    C[1:] = 1 + np.cumsum(counts)
    if backend == "rrr":
        node_metas = state["node_metas"]
        n_sym = int(counts.sum())
        tree_meta = {
            "n": n_sym,
            "sigma": SIGMA,
            "nodes": [
                {
                    "alphabet0": [0, 1],
                    "alphabet1": [2, 3],
                    "child0": 1,
                    "child1": 2,
                    "bits": node_metas[0],
                },
                {
                    "alphabet0": [0],
                    "alphabet1": [1],
                    "child0": -1,
                    "child1": -1,
                    "bits": node_metas[1],
                },
                {
                    "alphabet0": [2],
                    "alphabet1": [3],
                    "child0": -1,
                    "child1": -1,
                    "bits": node_metas[2],
                },
            ],
        }
        backend_meta = {
            "b": b,
            "sf": sf,
            "sentinel_in_tree": False,
            "dollar_pos": dollar,
            "n_rows": n1,
            "tree": tree_meta,
        }
        arrays: dict[str, np.ndarray] = {"C": C}
        for i in range(3):
            for name in _RRR_ARRAYS:
                arrays[f"tree/node{i}/{name}"] = np.load(
                    work / f"node{i}_{name}.npy", mmap_mode="r"
                )
        struct = BWTStructure.from_arrays(backend_meta, arrays, bwt=bwt)
    else:
        occ_meta = {
            "checkpoint_words": int(occ_checkpoint_words),
            "dollar_pos": dollar,
            "n_rows": n1,
            "n_sym": int(state["occ_n_sym"]),
        }
        words_path = work / "occ_words.bin"
        if os.path.getsize(words_path):
            words = np.memmap(words_path, dtype=np.uint64, mode="r")
        else:
            words = np.zeros(0, dtype=np.uint64)
        arrays = {
            "words": words,
            "checkpoints": np.load(work / "occ_checkpoints.npy", mmap_mode="r"),
            "C": C,
        }
        struct = OccTable.from_arrays(occ_meta, arrays, bwt=bwt)
    if locate == "full":
        loc = FullSA(bwt.sa)
    elif locate == "sampled":
        loc_arrays = {
            f"marks/{name}": np.load(work / f"marks_{name}.npy", mmap_mode="r")
            for name in _RRR_ARRAYS
        }
        loc_arrays["samples"] = np.memmap(work / "samples.bin", dtype=np.uint32, mode="r")
        loc = SampledSA.from_arrays(
            {"k": sa_sample_rate, "n_rows": n1, "marks": state["marks_meta"]}, loc_arrays
        )
    else:
        loc = None
    ftab = None
    ftab_seconds = 0.0
    if ftab_k is not None:
        t0 = time.perf_counter()
        ftab = Ftab.build(struct, k=ftab_k)
        ftab_seconds = time.perf_counter() - t0
    index = FMIndex(struct, locate_structure=loc, ftab=ftab)
    save_index_flat(index, out_path)
    return struct, ftab, ftab_seconds


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


def build_index_blockwise(
    text,
    out_path: str | Path,
    *,
    b: int = DEFAULT_BLOCK_SIZE,
    sf: int = DEFAULT_SUPERBLOCK_FACTOR,
    backend: str = "rrr",
    locate: str = "full",
    sa_sample_rate: int = 32,
    occ_checkpoint_words: int = 4,
    ftab_k: int | None = None,
    block_mb: float = 64.0,
    block_rows: int | None = None,
    work_dir: str | Path | None = None,
    resume: bool = False,
    keep_work_dir: bool = False,
    measure_peak: bool = False,
    checkpoint_callback: Callable[[str], None] | None = None,
) -> BuildReport:
    """Build a flat-container index out of core; return its build report.

    The finished container at ``out_path`` is byte-identical to
    ``save_index_flat`` applied to the equivalent monolithic
    :func:`~repro.index.builder.build_index` result.  ``block_mb`` sets
    the working-set budget of the suffix-array rounds (``block_rows``
    overrides it directly, mainly for tests).  With ``resume=True`` a
    build interrupted at any checkpoint continues from its work
    directory (``<out_path>.build`` unless ``work_dir`` is given);
    resuming a different input/configuration raises
    :class:`BuildResumeError`.  ``checkpoint_callback(label)`` is
    invoked after every durable state write — the fault-injection hook
    the kill/resume tests use.
    """
    if backend not in ("rrr", "occ"):
        raise ValueError(f"unknown backend {backend!r}")
    if locate not in ("full", "sampled", "none"):
        raise ValueError(f"unknown locate mode {locate!r}")
    codes = encode(text) if isinstance(text, str) else np.asarray(text, dtype=np.uint8)
    n = int(codes.size)
    n1 = n + 1
    if block_rows is None:
        block_rows = max(1024, int(block_mb * (1 << 20)) // _BYTES_PER_ROW)
    block_rows = int(block_rows)
    out_path = Path(out_path)
    work = Path(work_dir) if work_dir is not None else Path(str(out_path) + ".build")
    fp = _fingerprint(
        codes,
        b=b,
        sf=sf,
        backend=backend,
        locate=locate,
        sa_sample_rate=sa_sample_rate,
        occ_checkpoint_words=occ_checkpoint_words,
        ftab_k=ftab_k,
        block_rows=block_rows,
    )
    started_trace = False
    if measure_peak:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            started_trace = True
    try:
        state, resumed = _open_state(work, fp, resume)

        def save_state(label: str) -> None:
            _atomic_write_json(work / _STATE_NAME, state)
            if checkpoint_callback is not None:
                checkpoint_callback(label)

        if not resumed:
            save_state("init")
        stage_seconds: dict[str, float] = {}
        tel = get_telemetry()
        with tel.span(
            "index.build_blockwise",
            text_length=n,
            b=b,
            sf=sf,
            backend=backend,
            block_rows=block_rows,
        ):
            if state["stage"] == "sa":
                t0 = time.perf_counter()
                with tel.span("index.sa_blockwise", cat="index"):
                    _stage_sa(codes, n1, block_rows, work, state, save_state)
                stage_seconds["sa"] = time.perf_counter() - t0
            if state["stage"] == "bwt":
                t0 = time.perf_counter()
                with tel.span("index.bwt_stream", cat="index"):
                    _stage_bwt(
                        codes, n1, block_rows, work, state, save_state,
                        sa_sample_rate if locate == "sampled" else None,
                    )
                stage_seconds["bwt"] = time.perf_counter() - t0
            if state["stage"] == "encode":
                t0 = time.perf_counter()
                with tel.span("index.encode_stream", cat="index"):
                    _stage_encode(
                        n1,
                        block_rows,
                        work,
                        state,
                        save_state,
                        b=b,
                        sf=sf,
                        backend=backend,
                        occ_checkpoint_words=occ_checkpoint_words,
                    )
                stage_seconds["encode"] = time.perf_counter() - t0
            # "finalize" re-runs even from a "done" state: the container
            # write is idempotent and bit-identical.
            t0 = time.perf_counter()
            with tel.span("index.finalize_stream", cat="index"):
                struct, ftab, ftab_seconds = _stage_finalize(
                    n1,
                    work,
                    state,
                    out_path,
                    b=b,
                    sf=sf,
                    backend=backend,
                    locate=locate,
                    sa_sample_rate=sa_sample_rate,
                    occ_checkpoint_words=occ_checkpoint_words,
                    ftab_k=ftab_k,
                )
            stage_seconds["finalize"] = time.perf_counter() - t0
            state["stage"] = "done"
            save_state("finalize")
        peak = 0
        if measure_peak:
            peak = int(tracemalloc.get_traced_memory()[1])
        report = BuildReport(
            text_length=n,
            b=b,
            sf=sf,
            backend=backend,
            sa_bwt_seconds=stage_seconds.get("sa", 0.0) + stage_seconds.get("bwt", 0.0),
            encode_seconds=stage_seconds.get("encode", 0.0),
            structure_bytes=struct.size_in_bytes(),
            uncompressed_bytes=n1,
            bwt_entropy0=float(state["bwt_entropy0"]),
            bwt_runs=dict(state["bwt_runs"]),
            ftab_seconds=ftab_seconds,
            ftab_bytes=ftab.size_in_bytes() if ftab is not None else 0,
            build_mode="blockwise",
            stage_seconds=stage_seconds,
            peak_alloc_bytes=peak,
            resumed=resumed,
        )
        if tel.enabled:
            m = tel.metrics
            m.counter("index_builds_total", "Index builds completed").inc()
            hist = m.histogram(
                "index_build_stage_seconds",
                "Wall seconds per index build stage",
                labelnames=("stage",),
            )
            for stage, secs in stage_seconds.items():
                hist.observe(secs, stage=stage)
            m.gauge(
                "index_structure_bytes", "Succinct structure size of the last build"
            ).set(report.structure_bytes)
            if resumed:
                m.counter(
                    "index_blockwise_resumes_total", "Blockwise builds resumed"
                ).inc()
        # Release the memmaps the finalized structure holds before
        # deleting their backing files.
        del struct, ftab
        if not keep_work_dir:
            shutil.rmtree(work, ignore_errors=True)
        return report
    finally:
        if started_trace:
            tracemalloc.stop()
