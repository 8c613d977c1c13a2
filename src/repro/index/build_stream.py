"""Out-of-core (blockwise) index construction with a bounded memory budget.

:func:`repro.index.builder.build_index` materializes the suffix array,
the BWT and every encoder intermediate in RAM at once — fine for the
paper's bacterial references, hopeless for chromosome-scale ones.  This
module rebuilds the same pipeline as a streaming, resumable sequence of
on-disk stages so that peak resident memory stays
``O(block + rank array)`` instead of ``O(many full-size temporaries)``:

1. **Blockwise suffix array** — a seed round sorts every suffix by its
   packed 21-symbol prefix; refinement rounds (Larsson–Sadakane) then
   double the sorted prefix of only the suffixes still tied.  Every
   round sorts fixed-size blocks independently (numpy ``argsort`` per
   block, sorted runs spilled to disk) and k-way merges the runs with a
   bounded number of in-flight rows, assigning group-start ranks
   *during* the merge, so no full-size sort key ever exists in memory.
   When no suffix is tied, the rank array is the inverse SA and one
   bounded pass writes the SA.  The monolithic
   ``suffix_array(..., method="doubling")`` remains the differential
   oracle.
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
from ..core.global_tables import get_global_tables
from ..core.rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR, encode_blocks
from ..sequence.alphabet import encode
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
#: sampled-locate marks and samples written by the BWT stage, 3 the
#: seed/refinement suffix sort (group-start ranks plus a tied-row file).
_STATE_VERSION = 3

#: Rough bytes of working set per row of one suffix-sort block: a
#: block's int64 key, row and argsort columns (3 x 8 B), or the merge's
#: in-flight window with its positions, sort order and rank temporaries
#: (~4-5 x 8 B).  The persistent int64 rank array (8 B per text row)
#: comes on top.  ``block_rows = budget / 48`` keeps the *variable* part
#: of the footprint near the requested budget.
_BYTES_PER_ROW = 48

#: Rows per slice when the finished SA is narrowed to ``uint32``.
_SA_NARROW_ROWS = 1 << 20


#: The arrays of one encoded RRR vector, as ``StreamingRRREncoder.finalize``
#: returns them and the work directory stores them.
_RRR_ARRAYS = ("classes", "partial_sums", "offset_words", "offset_sums")

#: Rows per chunk of the streaming passes (the CRC below, the run spill):
#: bounds their transient copies.
_CHUNK_ROWS = 1 << 16


def _crc_stream(arr: np.ndarray) -> int:
    """``faults.crc32_of`` computed chunkwise.

    zlib's CRC32 is rolling, so hashing a contiguous array in slices
    yields the same value as one shot over ``tobytes()`` — without the
    full-size bytes copy that would dominate the blockwise builder's
    peak footprint.
    """
    arr = np.ascontiguousarray(arr).reshape(-1)
    crc = 0
    for lo in range(0, arr.size, _CHUNK_ROWS):
        crc = zlib.crc32(arr[lo : lo + _CHUNK_ROWS].tobytes(), crc)
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
        sf = self.sf
        classes, offsets, widths = encode_blocks(bits, self.b, self.tables)
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
        "sa_round": 0,
        "sa_k": 0,
        "n_tied": 0,
        "rank_file": None,
        "rank_crc": None,
        "tied_file": None,
        "tied_crc": None,
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


def _prune_work_files(work: Path, state: dict) -> None:
    # Older round files are deleted only once the state referencing the
    # new ones is durable, so a crash in between always leaves the files
    # the state points at intact.
    keep = {state.get("rank_file"), state.get("tied_file")}
    for p in [*work.glob("rank_*.npy"), *work.glob("tied_*.bin")]:
        if p.name not in keep:
            p.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# Stage 1: blockwise suffix array (packed seed sort, tied-group refinement).
# --------------------------------------------------------------------------

#: Symbols in one packed seed key.  Each takes 3 bits (``$`` = 0,
#: A..T = 1..4), so 21 of them fill 63 bits of a non-negative int64.
_SEED_SYMBOLS = 21


def _seed_blocks(codes: np.ndarray, n1: int, block_rows: int):
    """Yield ``(key, row)`` blocks: each suffix keyed by its packed
    21-symbol prefix (symbols past ``$`` read as 0)."""
    n = n1 - 1
    for lo in range(0, n1, block_rows):
        hi = min(lo + block_rows, n1)
        m = hi - lo
        window = np.zeros(m + _SEED_SYMBOLS - 1, dtype=np.uint8)
        seg = codes[lo : min(hi + _SEED_SYMBOLS - 1, n)]
        window[: seg.size] = seg + 1
        key = np.zeros(m, dtype=np.int64)
        for j in range(_SEED_SYMBOLS):
            key <<= 3
            key |= window[j : j + m]
        yield key, np.arange(lo, hi, dtype=np.int64)


def _refine_blocks(rank: np.ndarray, tied: np.ndarray, k: int, block_rows: int):
    """Yield ``(key, row)`` blocks of the tied rows keyed by
    ``(rank[i], rank[i+k])``.

    A tied row shares its k-prefix with another row, so that prefix holds
    no ``$`` and ``i + k`` is always a valid row.
    """
    mult = np.int64(rank.size)
    for lo in range(0, tied.size, block_rows):
        rows = np.array(tied[lo : lo + block_rows])
        yield rank[rows] * mult + rank[rows + k], rows


def _spill_runs(blocks, work: Path) -> list[tuple[int, int]]:
    """Sort every ``(key, row)`` block and append it to the run files as
    one sorted run; return each run's ``(start, end)`` in them."""
    bounds: list[tuple[int, int]] = []
    pos = 0
    with open(work / "runs_key.bin", "wb") as kf, open(work / "runs_idx.bin", "wb") as xf:
        for key, rows in blocks:
            order = np.argsort(key)
            # Gathered in slices so no full-block sorted copy is resident.
            for lo in range(0, order.size, _CHUNK_ROWS):
                part = order[lo : lo + _CHUNK_ROWS]
                key[part].tofile(kf)
                rows[part].tofile(xf)
            bounds.append((pos, pos + key.size))
            pos += key.size
            del key, rows, order, part  # before the next block is made
    return bounds


def _merge_runs(
    bounds: list[tuple[int, int]],
    merge_rows: int,
    work: Path,
    emit: Callable[[np.ndarray, np.ndarray], None],
) -> None:
    """K-way merge of the spilled runs with ``~merge_rows`` rows in flight.

    ``emit(keys, rows)`` receives consecutive chunks of the globally
    sorted stream; rows with equal keys may arrive in any order.
    """
    key_path = work / "runs_key.bin"
    idx_path = work / "runs_idx.bin"
    # Plain ndarray views of the maps: slicing a memmap subclass costs
    # more than the small windows of a many-run merge.
    keys = np.asarray(np.memmap(key_path, dtype=np.int64, mode="r"))
    idxs = np.asarray(np.memmap(idx_path, dtype=np.int64, mode="r"))
    cur = np.array([s for s, _ in bounds], dtype=np.int64)
    ends = np.array([e for _, e in bounds], dtype=np.int64)
    while True:
        active = np.flatnonzero(cur < ends)
        if active.size == 0:
            break
        c_sub = max(1, merge_rows // int(active.size))
        starts = cur[active]
        lens = np.minimum(starts + c_sub, ends[active]) - starts
        # Pivot: the minimum over active runs of the key closing each
        # run's next c_sub-row window.  Every key <= pivot in any run
        # then lies inside that run's window, except for further copies
        # of the pivot itself, so one bounded gather is globally complete.
        piv = keys[starts + lens - 1].min()
        first = np.cumsum(lens) - lens
        pos = np.repeat(starts - first, lens)
        pos += np.arange(pos.size)
        window = keys[pos]
        take = window <= piv
        cnt = np.add.reduceat(take, first)
        cur[active] += cnt
        if not take.all():
            window, pos = window[take], pos[take]
        del take
        # The gather is a concatenation of sorted windows; the stable
        # sort merges those runs instead of sorting from scratch.
        order = np.argsort(window, kind="stable")
        window = window[order]
        pos = pos[order]
        del order
        rows = idxs[pos]
        del pos
        emit(window, rows)
        del window, rows
        # Drain the remaining copies of the pivot from runs whose whole
        # window was taken.  Equal keys share a rank, so their order is
        # irrelevant and no sort is needed.
        more = active[(cnt == lens) & (cur[active] < ends[active])]
        for j in more[keys[cur[more]] == piv]:
            while cur[j] < ends[j]:
                lo_j = int(cur[j])
                run = keys[lo_j : min(lo_j + merge_rows, int(ends[j]))]
                n_eq = int(np.searchsorted(run, piv, side="right"))
                if n_eq == 0:
                    break
                emit(np.asarray(run[:n_eq]), np.asarray(idxs[lo_j : lo_j + n_eq]))
                cur[j] += n_eq
                if n_eq < run.size:
                    break
    del keys, idxs
    key_path.unlink(missing_ok=True)
    idx_path.unlink(missing_ok=True)


def _run_starts(vals: np.ndarray, prev: int, carry: int, pos: np.ndarray):
    """For a chunk of a sorted stream at positions ``pos``: whether each
    value equals its predecessor, and the position its run of equal
    values began (``prev``/``carry``: last value and run start so far)."""
    same = np.empty(vals.size, dtype=bool)
    same[0] = int(vals[0]) == prev
    np.equal(vals[1:], vals[:-1], out=same[1:])
    starts = np.where(same, carry, pos)
    np.maximum.accumulate(starts, out=starts)
    return same, starts


class _GroupRanker:
    """Rank rows arriving in sorted key order; record the still-tied ones.

    Every rank is a *group start*: the number of rows strictly smaller
    under the prefix sorted so far.  A key is ``old * mult + second`` (or
    a seed key with no old part, ``mult == 0``); the rows of one old group
    arrive together, and a row's new rank is its old rank plus the offset,
    inside that old group, of the first row with an equal key.  A row
    whose key no other row shares is resolved — its rank is its final SA
    position.  The others are appended to ``tied_f`` in stream order, so
    the file lists each tied group contiguously, in rank order.
    """

    def __init__(self, rank: np.ndarray, tied_f, mult: int) -> None:
        self.rank = rank
        self.tied_f = tied_f
        self.mult = np.int64(mult)
        self.n_tied = 0
        self.crc = 0
        self._seen = 0
        self._prev_key = self._prev_old = -1  # keys are non-negative
        self._key_start = self._old_start = 0
        # The last row seen waits for its successor to know if it is tied.
        self._pending: np.ndarray | None = None
        self._pending_tied = False

    def __call__(self, keys: np.ndarray, rows: np.ndarray) -> None:
        m = int(keys.size)
        pos = np.arange(self._seen, self._seen + m, dtype=np.int64)
        shared, new_rank = _run_starts(keys, self._prev_key, self._key_start, pos)
        self._prev_key, self._key_start = int(keys[-1]), int(new_rank[-1])
        if self.mult:
            old = keys // self.mult
            _, old_start = _run_starts(old, self._prev_old, self._old_start, pos)
            self._prev_old, self._old_start = int(old[-1]), int(old_start[-1])
            new_rank -= old_start
            new_rank += old
            del old, old_start
        del pos  # at full merge width every temporary is a block of int64
        self.rank[rows] = new_rank
        del new_rank
        if self._pending is not None and (self._pending_tied or shared[0]):
            self._write(self._pending)
        self._write(rows[:-1][shared[:-1] | shared[1:]])
        self._pending = rows[-1:].copy()
        self._pending_tied = bool(shared[-1])
        self._seen += m

    def _write(self, rows: np.ndarray) -> None:
        if rows.size:
            data = rows.tobytes()
            self.tied_f.write(data)
            self.crc = zlib.crc32(data, self.crc)
            self.n_tied += int(rows.size)

    def close(self) -> None:
        if self._pending is not None and self._pending_tied:
            self._write(self._pending)
        self._pending = None


def _load_tied(work: Path, state: dict) -> np.ndarray:
    path = work / str(state.get("tied_file"))
    n_tied = int(state["n_tied"])
    if not path.exists() or path.stat().st_size != 8 * n_tied:
        raise BuildResumeError("missing tied-row checkpoint; rebuild without resume")
    tied = np.memmap(path, dtype=np.int64, mode="r")
    if _crc_stream(tied) != state.get("tied_crc"):
        raise BuildResumeError("tied-row checkpoint failed CRC; rebuild without resume")
    return tied


def _write_sa(rank: np.ndarray, n1: int, block_rows: int, work: Path) -> None:
    """Invert the final ranks into ``sa.bin`` (``sa[rank[i]] = i``), one
    block of rows at a time."""
    sa = np.memmap(work / "sa.bin", dtype=np.int64, mode="w+", shape=(n1,))
    for lo in range(0, n1, block_rows):
        hi = min(lo + block_rows, n1)
        sa[rank[lo:hi]] = np.arange(lo, hi, dtype=np.int64)
    sa.flush()
    del sa


def _stage_sa(
    codes: np.ndarray,
    n1: int,
    block_rows: int,
    work: Path,
    state: dict,
    save_state: Callable[[str], None],
) -> None:
    """Round 1 sorts every row by its packed seed key; each later round
    doubles the sorted prefix of the rows still tied.  Every round ends
    with a rank (and tied-row) checkpoint."""
    if int(state["sa_round"]) == 0:
        rank = np.empty(n1, dtype=np.int64)
    else:
        rank = _load_rank(work, state)
    while int(state["sa_round"]) == 0 or int(state["n_tied"]):
        round_no = int(state["sa_round"]) + 1
        tied_name = f"tied_{round_no}.bin"
        if round_no == 1:
            h, mult = _SEED_SYMBOLS, 0
            blocks = _seed_blocks(codes, n1, block_rows)
        else:
            k = int(state["sa_k"])
            h, mult = 2 * k, n1
            blocks = _refine_blocks(rank, _load_tied(work, state), k, block_rows)
        bounds = _spill_runs(blocks, work)
        del blocks  # releases the previous round's tied-row memmap
        with open(work / tied_name, "wb") as tied_f:
            ranker = _GroupRanker(rank, tied_f, mult)
            _merge_runs(bounds, block_rows, work, ranker)
            ranker.close()
        _save_rank(work, state, rank, round_no)
        # ``sa_k``: the prefix length every rank now sorts by.
        state.update(
            sa_round=round_no, sa_k=h, n_tied=ranker.n_tied,
            tied_file=tied_name, tied_crc=ranker.crc,
        )
        save_state("sa:seed" if round_no == 1 else f"sa:round{round_no}")
        _prune_work_files(work, state)
    # No tied group is left: ``rank`` is the inverse suffix array.
    _write_sa(rank, n1, block_rows, work)
    del rank
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


def _narrow_sa(work: Path, n1: int) -> np.ndarray:
    """``sa.bin`` copied to a ``uint32`` work file (the container's SA
    layout) in ``_SA_NARROW_ROWS`` slices, so the copy never holds a
    full-size array in memory.  An index of ``2**32`` rows or more is
    refused when the container is written, so no wrapped entry is
    ever stored."""
    sa = np.memmap(work / "sa.bin", dtype=np.int64, mode="r")
    out = np.memmap(work / "sa_u32.bin", dtype=np.uint32, mode="w+", shape=(n1,))
    for lo in range(0, n1, _SA_NARROW_ROWS):
        out[lo : lo + _SA_NARROW_ROWS] = sa[lo : lo + _SA_NARROW_ROWS]
    out.flush()
    return out


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
        struct = BWTStructure.from_arrays(backend_meta, arrays)
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
        struct = OccTable.from_arrays(occ_meta, arrays)
    if locate == "full":
        loc = FullSA(_narrow_sa(work, n1))
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
            shared_table_bytes=struct.size_in_bytes() - struct.size_in_bytes(include_shared=False),
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
