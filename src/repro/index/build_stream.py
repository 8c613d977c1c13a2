"""Index construction: the host-side steps of BWaveR as four stages.

The paper's workflow (§III-D, Fig. 4) builds the index on the host in two
steps, SA+BWT and then encoding.  Every index here is built by the same
four stages, whose working set is bounded by a row budget (``block_mb``):

1. **Suffix array** — a seed round sorts every suffix by its packed
   21-symbol prefix; refinement rounds (Larsson–Sadakane) then double the
   sorted prefix of only the suffixes still tied.  Every round sorts
   fixed-size blocks independently (numpy ``argsort`` per block, each a
   sorted run) and k-way merges the runs with a bounded number of
   in-flight rows, assigning group-start ranks *during* the merge, so no
   full-size sort key ever exists.  When no suffix is tied, the rank
   array is the inverse SA and one bounded pass writes the SA.
2. **Streaming BWT** — one chunked pass over the SA producing the BWT
   plus symbol counts, run statistics, entropy and (sampled locate) the
   SA marks and samples.
3. **Incremental encoding** — a streaming RRR encoder (bit-identical to
   :class:`repro.core.rrr.RRRVector`'s batch ``_build``) feeds the three
   wavelet-tree nodes in one pass over the BWT; the ``occ`` backend
   packs 2-bit words and checkpoint rows the same way.
4. **Finalize** — the encoded arrays are rehydrated through the
   canonical ``from_arrays`` constructors, plus the locate structure and
   the optional k-mer table.

The two entry points differ only in where the stages keep their arrays:

* :func:`build_index` keeps them in memory and returns the index.  No
  file is written, so there is nothing to resume.
* :func:`build_index_blockwise` keeps them in a work directory: sorted
  runs spill to disk, and every stage (and suffix-sort round) ends with
  an atomic ``state.json`` checkpoint with CRC-verified payload files, so
  a killed build resumes with ``resume=True``.  Finalize writes the flat
  container with :func:`repro.index.flat.save_index_flat`.

Both produce the same index, so their containers are byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import tracemalloc
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Literal

import numpy as np

from ..core.bitio import IncrementalBitPacker
from ..core.bwt_structure import BWTStructure
from ..core.global_tables import get_global_tables
from ..core.rrr import DEFAULT_BLOCK_SIZE, DEFAULT_SUPERBLOCK_FACTOR, encode_blocks
from ..sequence.alphabet import encode
from ..sequence.sampled_sa import MARK_B, MARK_SF, FullSA, SampledSA
from ..telemetry import get_telemetry
from .flat import save_index_flat
from .fm_index import FMIndex
from .ftab import Ftab
from .occ_table import BASES_PER_WORD, OccTable, pack_2bit

Backend = Literal["rrr", "occ"]
Locate = Literal["full", "sampled", "none"]

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

#: Fewest rows of a suffix-sort block, however small the budget.
_MIN_BLOCK_ROWS = 1024

#: Rows per slice when the finished SA is narrowed to ``uint32``.
_SA_NARROW_ROWS = 1 << 20

#: The arrays of one encoded RRR vector, as ``StreamingRRREncoder.finalize``
#: returns them and the work directory stores them.
_RRR_ARRAYS = ("classes", "partial_sums", "offset_words", "offset_sums")

#: Rows per chunk of the streaming passes (the CRC below, the run spill):
#: bounds their transient copies.
_CHUNK_ROWS = 1 << 16

#: Fewest rows a run contributes to one merge window.  A merge of more
#: runs than ``merge_rows // _MIN_RUN_ROWS`` first merges them in groups
#: of that many, pass after pass, so no window shrinks to a row per run.
_MIN_RUN_ROWS = 16

#: Bits a :class:`StreamingRRREncoder` buffers before it encodes them.
_FEED_BITS = 1 << 16


@dataclass
class BuildReport:
    """Timing and size breakdown of one index build.

    ``sa_bwt_seconds`` and ``encode_seconds`` correspond one-to-one to the
    paper's workflow steps 1 and 2; ``encode_seconds`` is the quantity of
    Fig. 6.
    """

    text_length: int
    b: int
    sf: int
    backend: str
    sa_bwt_seconds: float
    encode_seconds: float
    structure_bytes: int
    uncompressed_bytes: int
    bwt_entropy0: float
    bwt_runs: dict = field(default_factory=dict)
    #: K-mer jump-start table build time and footprint (0 when disabled).
    ftab_seconds: float = 0.0
    ftab_bytes: int = 0
    #: Wall seconds per stage (``sa``, ``bwt``, ``encode``, ``finalize``)
    #: run by this call; a resumed build omits the stages it skipped.
    stage_seconds: dict = field(default_factory=dict)
    #: tracemalloc peak of traced allocations during the build, when the
    #: builder was asked to measure it (0 otherwise).
    peak_alloc_bytes: int = 0
    #: True when a blockwise build continued from on-disk checkpoints.
    resumed: bool = False
    #: Bytes of the shared Global Rank Table counted in
    #: ``structure_bytes`` (one copy serves every RRR structure of a
    #: block size; 0 for the ``occ`` backend).
    shared_table_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """Structure size relative to the 1 byte/char representation."""
        if self.uncompressed_bytes == 0:
            return 0.0
        return self.structure_bytes / self.uncompressed_bytes

    @property
    def space_saving_percent(self) -> float:
        """The paper's "reducing the memory requirements up to X%" metric."""
        return 100.0 * (1.0 - self.compression_ratio)

    def size_summary(self) -> str:
        """``structure_bytes`` for a log line: the index's own bytes and
        their saving, then the shared table, which dominates below ~100
        kbp and would turn the saving negative if it were charged to one
        small index."""
        own = self.structure_bytes - self.shared_table_bytes
        if own < self.uncompressed_bytes:
            ratio = f"{100.0 * (1.0 - own / self.uncompressed_bytes):.1f}% saved vs 1 B/char"
        else:
            ratio = f"{own / max(1, self.uncompressed_bytes):.2f} B/char"
        shared = (
            f" + {self.shared_table_bytes:,} B shared rank table"
            if self.shared_table_bytes
            else ""
        )
        return f"structure: {own:,} B ({ratio}){shared}"


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
    without ever holding the whole bit-vector: only up to
    ``_FEED_BITS`` buffered bits and the growing (already succinct)
    output live in memory.
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
        self._pending: list[np.ndarray] = []
        self._n_pending = 0
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
        bits = np.array(bits, dtype=np.uint8)
        self.n += int(bits.size)
        self._pending.append(bits)
        self._n_pending += int(bits.size)
        if self._n_pending >= _FEED_BITS:
            # Whole blocks are encoded in batches of at least _FEED_BITS
            # bits, so a small vector costs one encoder call in total.
            bits = np.concatenate(self._pending)
            cut = bits.size - bits.size % self.b
            self._encode_blocks(bits[:cut])
            self._pending = [bits[cut:].copy()]
            self._n_pending = bits.size - cut

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
        if self._n_pending:
            # encode_blocks zero-pads the trailing partial block, exactly
            # like the batch builder's whole-superblock padding (padding
            # blocks beyond n_blocks are dropped there, so none are
            # emitted here).
            self._encode_blocks(np.concatenate(self._pending))
            self._pending = []
            self._n_pending = 0
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
    """Streaming variant of :meth:`OccTable.build`: 2-bit words appended
    to ``words`` (a work sink), checkpoint rows accumulated per
    ``32 * checkpoint_words`` symbols."""

    def __init__(self, checkpoint_words: int, words) -> None:
        self.cw = int(checkpoint_words)
        self.d_rows = BASES_PER_WORD * self.cw
        self._words = words
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
        self._words.append(words)
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
        """Flush the tail; return ``(n_words, checkpoints)``."""
        if self._pending.size:
            self._emit(self._pending)
            self._pending = np.zeros(0, dtype=np.uint8)
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
# Where the stages keep their arrays: memory, or a resumable work directory.
# --------------------------------------------------------------------------


class _MemoryWork:
    """Stage arrays held in memory.  Nothing is written, so checkpoints
    and CRCs are no-ops and nothing can resume."""

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray | list[np.ndarray]] = {}

    def checkpoint(self, state: dict, label: str) -> None:
        pass

    def crc(self, arr: np.ndarray) -> None:
        return None

    def verify(self, arr: np.ndarray, want, what: str) -> None:
        pass

    def save(self, name: str, arr: np.ndarray) -> None:
        self._arrays[name] = arr

    def load(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def create(self, name: str, dtype, n: int) -> np.ndarray:
        arr = self._arrays[name] = np.empty(n, dtype=dtype)
        return arr

    def flush(self, arr: np.ndarray) -> None:
        pass

    @contextmanager
    def sink(self, name: str):
        """A list whose ``append``-ed chunks :meth:`array` joins."""
        parts: list[np.ndarray] = []
        self._arrays[name] = parts
        yield parts

    def array(self, name: str, dtype) -> np.ndarray:
        arr = self._arrays[name]
        if isinstance(arr, list):
            arr = np.concatenate(arr) if arr else np.zeros(0, dtype=dtype)
            self._arrays[name] = arr
        return arr

    def delete(self, *names: str) -> None:
        for name in names:
            self._arrays.pop(name, None)

    def prune(self, state: dict) -> None:
        keep = {state.get("rank_file"), state.get("tied_file")}
        self.delete(*[n for n in self._arrays if n.startswith(("rank_", "tied_")) and n not in keep])


class _FileSink:
    def __init__(self, fh) -> None:
        self._fh = fh

    def append(self, arr: np.ndarray) -> None:
        # Through the file's buffer: ``tofile`` flushes on every call,
        # which costs more than the small chunks of a tight budget.
        self._fh.write(np.ascontiguousarray(arr).data)


class _DiskWork:
    """Stage arrays as files in a work directory, with an atomic
    ``state.json`` checkpoint after every stage and suffix-sort round."""

    def __init__(self, path: Path, callback: Callable[[str], None] | None) -> None:
        self.path = path
        self._callback = callback

    def checkpoint(self, state: dict, label: str) -> None:
        _atomic_write_json(self.path / _STATE_NAME, state)
        if self._callback is not None:
            self._callback(label)

    def crc(self, arr: np.ndarray) -> int:
        return _crc_stream(arr)

    def verify(self, arr: np.ndarray, want, what: str) -> None:
        if _crc_stream(arr) != want:
            raise BuildResumeError(f"{what} failed CRC; rebuild without resume")

    def _existing(self, name: str) -> Path:
        path = self.path / name
        if not path.exists():
            raise BuildResumeError(f"missing work file {name}; rebuild without resume")
        return path

    def save(self, name: str, arr: np.ndarray) -> None:
        _atomic_save_npy(self.path / name, arr)

    def load(self, name: str) -> np.ndarray:
        return np.load(self._existing(name), mmap_mode="r")

    def create(self, name: str, dtype, n: int) -> np.ndarray:
        return np.memmap(self.path / name, dtype=dtype, mode="w+", shape=(n,))

    def flush(self, arr: np.memmap) -> None:
        arr.flush()

    @contextmanager
    def sink(self, name: str):
        """A file whose ``append``-ed chunks :meth:`array` maps."""
        with open(self.path / name, "wb") as fh:
            yield _FileSink(fh)

    def array(self, name: str, dtype) -> np.ndarray:
        path = self._existing(name)
        if not os.path.getsize(path):
            return np.zeros(0, dtype=dtype)  # a zero-length file cannot be mapped
        return np.memmap(path, dtype=dtype, mode="r")

    def delete(self, *names: str) -> None:
        for name in names:
            (self.path / name).unlink(missing_ok=True)

    def prune(self, state: dict) -> None:
        # Older round files are deleted only once the state referencing
        # the new ones is durable, so a crash in between always leaves the
        # files the state points at intact.
        keep = {state.get("rank_file"), state.get("tied_file")}
        for p in [*self.path.glob("rank_*.npy"), *self.path.glob("tied_*.bin")]:
            if p.name not in keep:
                p.unlink(missing_ok=True)


def _atomic_write_json(path: Path, doc: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(tmp, path)


def _atomic_save_npy(path: Path, arr: np.ndarray) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        np.save(f, np.ascontiguousarray(arr))
    os.replace(tmp, path)


def _fresh_state(fingerprint: dict | None) -> dict:
    return {
        "version": _STATE_VERSION,
        "fingerprint": fingerprint,
        "stage": "sa",
        "sa_round": 0,
        "sa_k": 0,
        "n_tied": 0,
        "rank_file": None,
        "rank_crc": None,
        "tied_file": None,
        "tied_crc": None,
    }


def _fingerprint(codes: np.ndarray, block_rows: int, cfg: dict) -> dict:
    return {
        "n": int(codes.size),
        "codes_crc": _crc_stream(codes),
        "b": int(cfg["b"]),
        "sf": int(cfg["sf"]),
        "backend": cfg["backend"],
        "locate": cfg["locate"],
        "sa_sample_rate": int(cfg["sa_sample_rate"]),
        "occ_checkpoint_words": int(cfg["occ_checkpoint_words"]),
        "ftab_k": None if cfg["ftab_k"] is None else int(cfg["ftab_k"]),
        "block_rows": int(block_rows),
    }


def _open_state(work: Path, fp: dict, resume: bool) -> tuple[dict, bool]:
    """The build state in ``work``: a fresh one, or (``resume``) the one
    a killed build left there.

    A stale work directory is replaced, but only one this builder made
    (it holds ``state.json``); any other non-empty path is left alone.
    """
    state_path = work / _STATE_NAME
    ours = state_path.is_file()
    if work.exists() and not ours and (not work.is_dir() or any(work.iterdir())):
        raise FileExistsError(
            f"{work} exists and is not a build work directory (no {_STATE_NAME}); "
            "move it away or choose another work directory"
        )
    if not resume and ours:
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
    return _fresh_state(fp), False


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


def _spill_runs(blocks, work) -> list[tuple[int, int]]:
    """Sort every ``(key, row)`` block and append it to the run arrays as
    one sorted run; return each run's ``(start, end)`` in them."""
    bounds: list[tuple[int, int]] = []
    pos = 0
    with work.sink("runs_key.bin") as keys, work.sink("runs_idx.bin") as idxs:
        for key, rows in blocks:
            order = np.argsort(key)
            # Gathered in slices so no full-block sorted copy is resident.
            for lo in range(0, order.size, _CHUNK_ROWS):
                part = order[lo : lo + _CHUNK_ROWS]
                keys.append(key[part])
                idxs.append(rows[part])
            bounds.append((pos, pos + key.size))
            pos += key.size
            del key, rows, order, part  # before the next block is made
    return bounds


def _merge_runs(
    bounds: list[tuple[int, int]],
    merge_rows: int,
    work,
    emit: Callable[[np.ndarray, np.ndarray], None],
) -> None:
    """Merge the spilled runs into one sorted stream, ``~merge_rows`` rows
    in flight.

    ``emit(keys, rows)`` receives consecutive chunks of the globally
    sorted stream; rows with equal keys may arrive in any order.  Runs
    split into parts whose key ranges follow one another (see
    :func:`_parts`), and each part is merged on its own, in order.  While
    a part has more runs than the fan-in (``merge_rows // _MIN_RUN_ROWS``),
    a pass first merges consecutive groups of that many runs into one, so
    every merge window takes at least ``_MIN_RUN_ROWS`` rows of each run.
    """
    fan_in = max(2, merge_rows // _MIN_RUN_ROWS)
    names = ("runs_key.bin", "runs_idx.bin")
    level = 0
    while True:
        keys, idxs = (np.asarray(work.array(name, np.int64)) for name in names)
        parts = _parts(keys, bounds)
        if max(len(part) for part in parts) <= fan_in:
            break
        level += 1
        merged = (f"runs_key.{level}.bin", f"runs_idx.{level}.bin")
        with work.sink(merged[0]) as key_out, work.sink(merged[1]) as idx_out:

            def write(k: np.ndarray, r: np.ndarray) -> None:
                key_out.append(k)
                idx_out.append(r)

            groups = [
                part[g : g + fan_in] for part in parts for g in range(0, len(part), fan_in)
            ]
            for group in groups:
                _merge_group(keys, idxs, group, merge_rows, write)
        del keys, idxs
        work.delete(*names)
        names = merged
        # Each group's rows fill the same span of the next level's arrays.
        bounds = [(group[0][0], group[-1][1]) for group in groups]
    for part in parts:
        _merge_group(keys, idxs, part, merge_rows, emit)
    del keys, idxs
    work.delete(*names)


def _parts(keys: np.ndarray, bounds: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Cut the run list wherever no key of an earlier run exceeds any key
    of a later one.

    A refinement round's runs are blocks of the tied rows in rank order,
    so they overlap only where a tied group spans two blocks: most parts
    are one run, which is already merged.
    """
    starts = np.array([s for s, _ in bounds], dtype=np.int64)
    ends = np.array([e for _, e in bounds], dtype=np.int64)
    highest = np.maximum.accumulate(keys[ends - 1])
    lowest = np.minimum.accumulate(keys[starts][::-1])[::-1]
    cuts = (np.flatnonzero(highest[:-1] <= lowest[1:]) + 1).tolist()
    return [bounds[a:b] for a, b in zip([0, *cuts], [*cuts, len(bounds)])]


def _merge_group(
    keys: np.ndarray,
    idxs: np.ndarray,
    bounds: list[tuple[int, int]],
    merge_rows: int,
    emit: Callable[[np.ndarray, np.ndarray], None],
) -> None:
    """K-way merge of the sorted runs ``keys[s:e]`` (rows ``idxs[s:e]``)
    named by ``bounds``, ``~merge_rows`` rows in flight."""
    if len(bounds) == 1:
        lo, hi = bounds[0]
        for s in range(lo, hi, merge_rows):
            e = min(s + merge_rows, hi)
            emit(keys[s:e], idxs[s:e])
        return
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
                emit(run[:n_eq], idxs[lo_j : lo_j + n_eq])
                cur[j] += n_eq
                if n_eq < run.size:
                    break


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
    position.  The others are appended to the ``tied`` sink in stream
    order, so it lists each tied group contiguously, in rank order.
    """

    def __init__(self, rank: np.ndarray, tied, mult: int) -> None:
        self.rank = rank
        self.tied = tied
        self.mult = np.int64(mult)
        self.n_tied = 0
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
            self.tied.append(rows)
            self.n_tied += int(rows.size)

    def close(self) -> None:
        if self._pending is not None and self._pending_tied:
            self._write(self._pending)
        self._pending = None


def _load_tied(work, state: dict) -> np.ndarray:
    tied = work.array(str(state.get("tied_file")), np.int64)
    if tied.size != int(state["n_tied"]):
        raise BuildResumeError("missing tied-row checkpoint; rebuild without resume")
    work.verify(tied, state.get("tied_crc"), "tied-row checkpoint")
    return tied


def _write_sa(rank: np.ndarray, n1: int, block_rows: int, work) -> None:
    """Invert the final ranks into the SA (``sa[rank[i]] = i``), one
    block of rows at a time."""
    sa = work.create("sa.bin", np.int64, n1)
    for lo in range(0, n1, block_rows):
        hi = min(lo + block_rows, n1)
        sa[rank[lo:hi]] = np.arange(lo, hi, dtype=np.int64)
    work.flush(sa)


def _stage_sa(codes: np.ndarray, n1: int, block_rows: int, work, state: dict) -> None:
    """Round 1 sorts every row by its packed seed key; each later round
    doubles the sorted prefix of the rows still tied.  Every round ends
    with a rank (and tied-row) checkpoint."""
    if int(state["sa_round"]) == 0:
        rank = np.empty(n1, dtype=np.int64)
    else:
        rank = np.array(work.load(str(state["rank_file"])))  # a writable copy
        work.verify(rank, state.get("rank_crc"), "rank checkpoint")
    while int(state["sa_round"]) == 0 or int(state["n_tied"]):
        round_no = int(state["sa_round"]) + 1
        if round_no == 1:
            h, mult = _SEED_SYMBOLS, 0
            blocks = _seed_blocks(codes, n1, block_rows)
        else:
            k = int(state["sa_k"])
            h, mult = 2 * k, n1
            blocks = _refine_blocks(rank, _load_tied(work, state), k, block_rows)
        bounds = _spill_runs(blocks, work)
        del blocks  # releases the previous round's tied rows
        tied_name, rank_name = f"tied_{round_no}.bin", f"rank_{round_no}.npy"
        with work.sink(tied_name) as tied:
            ranker = _GroupRanker(rank, tied, mult)
            _merge_runs(bounds, block_rows, work, ranker)
            ranker.close()
        work.save(rank_name, rank)
        # ``sa_k``: the prefix length every rank now sorts by.
        state.update(
            sa_round=round_no, sa_k=h, n_tied=ranker.n_tied,
            rank_file=rank_name, rank_crc=work.crc(rank),
            tied_file=tied_name, tied_crc=work.crc(work.array(tied_name, np.int64)),
        )
        work.checkpoint(state, "sa:seed" if round_no == 1 else f"sa:round{round_no}")
        work.prune(state)
    # No tied group is left: ``rank`` is the inverse suffix array.
    _write_sa(rank, n1, block_rows, work)
    del rank
    state["sa_crc"] = work.crc(work.array("sa.bin", np.int64))
    state["stage"] = "bwt"
    work.checkpoint(state, "sa")
    work.delete(str(state["rank_file"]))  # the next stages read only the SA


# --------------------------------------------------------------------------
# Stage 2: streaming BWT emission.
# --------------------------------------------------------------------------


def _stage_bwt(
    codes: np.ndarray,
    n1: int,
    block_rows: int,
    work,
    state: dict,
    sample_rate: int | None,
) -> None:
    """Emit the BWT from the SA; with a ``sample_rate`` k, also the
    sampled-SA marks (``sa % k == 0``, streamed into an RRR encoder) and
    the ``uint32`` quotients ``sa // k`` of the marked rows."""
    sa = work.array("sa.bin", np.int64)
    if sa.size != n1:
        raise BuildResumeError("missing suffix-array checkpoint; rebuild without resume")
    work.verify(sa, state.get("sa_crc"), "suffix-array checkpoint")
    counts = np.zeros(SIGMA, dtype=np.int64)
    dollar_pos = -1
    runs = 0
    max_run = 0
    cur_len = 0
    prev_sym = -1
    marks = StreamingRRREncoder(MARK_B, MARK_SF) if sample_rate else None
    with work.sink("bwt.bin") as bwt, (
        work.sink("samples.bin") if marks is not None else nullcontext()
    ) as samples:
        for lo in range(0, n1, block_rows):
            hi = min(lo + block_rows, n1)
            sa_c = np.asarray(sa[lo:hi])
            if marks is not None:
                marked = sa_c % sample_rate == 0
                marks.feed(marked.view(np.uint8))
                samples.append((sa_c[marked] // sample_rate).astype(np.uint32))
            if codes.size:
                out = codes[np.where(sa_c > 0, sa_c - 1, 0)].astype(np.uint8)
            else:
                out = np.zeros(sa_c.size, dtype=np.uint8)
            z = np.flatnonzero(sa_c == 0)
            if z.size:
                dollar_pos = lo + int(z[0])
                out[z[0]] = 0  # placeholder, same as bwt_from_codes
            bwt.append(out)
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
    del sa
    if marks is not None:
        marks_meta, marks_arrays = marks.finalize()
        for name, arr in marks_arrays.items():
            work.save(f"marks_{name}.npy", arr)
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
    state["bwt_crc"] = work.crc(work.array("bwt.bin", np.uint8))
    state["dollar_pos"] = int(dollar_pos)
    state["counts"] = [int(c) for c in counts]
    state["bwt_entropy0"] = entropy
    state["bwt_runs"] = run_stats
    state["stage"] = "encode"
    work.checkpoint(state, "bwt")


# --------------------------------------------------------------------------
# Stage 3: incremental wavelet/RRR or Occ-checkpoint encoding.
# --------------------------------------------------------------------------


def _sentinel_free_chunks(bwt: np.ndarray, n1: int, dollar: int, chunk_rows: int):
    for lo in range(0, n1, chunk_rows):
        hi = min(lo + chunk_rows, n1)
        chunk = np.asarray(bwt[lo:hi])
        if lo <= dollar < hi:
            chunk = np.delete(chunk, dollar - lo)
        yield chunk


def _stage_encode(
    n1: int,
    block_rows: int,
    work,
    state: dict,
    *,
    b: int,
    sf: int,
    backend: str,
    occ_checkpoint_words: int,
) -> None:
    bwt = work.array("bwt.bin", np.uint8)
    if bwt.size != n1:
        raise BuildResumeError("missing BWT checkpoint; rebuild without resume")
    work.verify(bwt, state.get("bwt_crc"), "BWT checkpoint")
    chunks = _sentinel_free_chunks(bwt, n1, int(state["dollar_pos"]), block_rows)
    if backend == "rrr":
        # One pass feeds all three wavelet-tree nodes (sigma=4, balanced
        # tree: root splits {A,C}|{G,T}, leaves split within each pair).
        encs = [StreamingRRREncoder(b, sf) for _ in range(3)]
        for chunk in chunks:
            right = chunk >= 2
            encs[0].feed(right.astype(np.uint8))
            encs[1].feed((chunk[~right] == 1).astype(np.uint8))
            encs[2].feed((chunk[right] == 3).astype(np.uint8))
        node_metas = []
        for i, enc in enumerate(encs):
            meta_i, arrays_i = enc.finalize()
            for name, arr in arrays_i.items():
                work.save(f"node{i}_{name}.npy", arr)
            node_metas.append(meta_i)
        state["node_metas"] = node_metas
    else:
        with work.sink("occ_words.bin") as words:
            occ = _StreamingOccEncoder(occ_checkpoint_words, words)
            for chunk in chunks:
                occ.feed(chunk)
            n_words, checkpoints = occ.finalize()
        work.save("occ_checkpoints.npy", checkpoints)
        state["occ_n_words"] = int(n_words)
        state["occ_n_sym"] = int(occ.n_sym)
    del bwt, chunks
    state["stage"] = "finalize"
    work.checkpoint(state, "encode")


# --------------------------------------------------------------------------
# Stage 4: finalize through the canonical constructors.
# --------------------------------------------------------------------------


def _narrow_sa(work, n1: int) -> np.ndarray:
    """The SA copied to ``uint32`` (the container's SA layout) in
    ``_SA_NARROW_ROWS`` slices, so the copy never holds a second
    full-size int64 array.  An index of ``2**32`` rows or more is refused
    when the container is written, so no wrapped entry is ever stored."""
    sa = work.array("sa.bin", np.int64)
    out = work.create("sa_u32.bin", np.uint32, n1)
    for lo in range(0, n1, _SA_NARROW_ROWS):
        out[lo : lo + _SA_NARROW_ROWS] = sa[lo : lo + _SA_NARROW_ROWS]
    work.flush(out)
    return out


def _stage_finalize(
    n1: int,
    work,
    state: dict,
    *,
    b: int,
    sf: int,
    backend: str,
    locate: str,
    sa_sample_rate: int,
    occ_checkpoint_words: int,
    ftab_k: int | None,
) -> tuple[FMIndex, float]:
    dollar = int(state["dollar_pos"])
    counts = np.asarray(state["counts"], dtype=np.int64)
    C = np.zeros(SIGMA + 1, dtype=np.int64)
    C[0] = 1
    C[1:] = 1 + np.cumsum(counts)
    if backend == "rrr":
        node_metas = state["node_metas"]
        leaf = {"child0": -1, "child1": -1}
        tree_meta = {
            "n": int(counts.sum()),
            "sigma": SIGMA,
            "nodes": [
                {"alphabet0": [0, 1], "alphabet1": [2, 3], "child0": 1, "child1": 2,
                 "bits": node_metas[0]},
                {"alphabet0": [0], "alphabet1": [1], **leaf, "bits": node_metas[1]},
                {"alphabet0": [2], "alphabet1": [3], **leaf, "bits": node_metas[2]},
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
                arrays[f"tree/node{i}/{name}"] = work.load(f"node{i}_{name}.npy")
        struct = BWTStructure.from_arrays(backend_meta, arrays)
    else:
        occ_meta = {
            "checkpoint_words": int(occ_checkpoint_words),
            "dollar_pos": dollar,
            "n_rows": n1,
            "n_sym": int(state["occ_n_sym"]),
        }
        arrays = {
            "words": work.array("occ_words.bin", np.uint64),
            "checkpoints": work.load("occ_checkpoints.npy"),
            "C": C,
        }
        struct = OccTable.from_arrays(occ_meta, arrays)
    if locate == "full":
        loc = FullSA(_narrow_sa(work, n1))
    elif locate == "sampled":
        loc_arrays = {f"marks/{name}": work.load(f"marks_{name}.npy") for name in _RRR_ARRAYS}
        loc_arrays["samples"] = work.array("samples.bin", np.uint32)
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
    return FMIndex(struct, locate_structure=loc, ftab=ftab), ftab_seconds


# --------------------------------------------------------------------------
# Drivers.
# --------------------------------------------------------------------------


def _prepare(text, backend: str, locate: str) -> np.ndarray:
    """The text's codes, after checking the configuration."""
    if backend not in ("rrr", "occ"):
        raise ValueError(f"unknown backend {backend!r}")
    if locate not in ("full", "sampled", "none"):
        raise ValueError(f"unknown locate mode {locate!r}")
    return encode(text) if isinstance(text, str) else np.asarray(text, dtype=np.uint8)


def _budget_rows(block_mb: float) -> int:
    """Suffix-sort block size of a ``block_mb`` working-set budget."""
    return max(_MIN_BLOCK_ROWS, int(block_mb * (1 << 20)) // _BYTES_PER_ROW)


def _run_stages(
    codes: np.ndarray,
    work,
    state: dict,
    block_rows: int,
    out_path: Path | None,
    cfg: dict,
) -> tuple[FMIndex, BuildReport]:
    """Run the stages ``state`` has not finished; with an ``out_path``,
    finalize also writes the container there."""
    n = int(codes.size)
    n1 = n + 1
    b, sf, backend = cfg["b"], cfg["sf"], cfg["backend"]
    tel = get_telemetry()
    stage_seconds: dict[str, float] = {}

    @contextmanager
    def stage(name: str):
        t0 = time.perf_counter()
        with tel.span(f"index.{name}", cat="index"):
            yield
        stage_seconds[name] = time.perf_counter() - t0

    with tel.span("index.build", text_length=n, b=b, sf=sf, backend=backend,
                  block_rows=block_rows):
        if state["stage"] == "sa":
            with stage("sa"):
                _stage_sa(codes, n1, block_rows, work, state)
        if state["stage"] == "bwt":
            with stage("bwt"):
                _stage_bwt(
                    codes, n1, block_rows, work, state,
                    cfg["sa_sample_rate"] if cfg["locate"] == "sampled" else None,
                )
        if state["stage"] == "encode":
            with stage("encode"):
                _stage_encode(
                    n1, block_rows, work, state, b=b, sf=sf, backend=backend,
                    occ_checkpoint_words=cfg["occ_checkpoint_words"],
                )
        # "finalize" re-runs even from a "done" state: the container
        # write is idempotent and bit-identical.
        with stage("finalize"):
            index, ftab_seconds = _stage_finalize(n1, work, state, **cfg)
            if out_path is not None:
                save_index_flat(index, out_path)
        state["stage"] = "done"
        work.checkpoint(state, "finalize")
    struct = index.backend
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
        ftab_bytes=index.ftab.size_in_bytes() if index.ftab is not None else 0,
        stage_seconds=stage_seconds,
    )
    if tel.enabled:
        m = tel.metrics
        m.counter("index_builds_total", "Index builds completed").inc()
        hist = m.histogram(
            "index_build_stage_seconds",
            "Wall seconds per index build stage",
            labelnames=("stage",),
        )
        for name, secs in stage_seconds.items():
            hist.observe(secs, stage=name)
        m.gauge(
            "index_structure_bytes", "Succinct structure size of the last build"
        ).set(report.structure_bytes)
        tel.log.info(
            "index.build.done",
            text_length=n,
            b=b,
            sf=sf,
            backend=backend,
            stage_seconds=stage_seconds,
            structure_bytes=report.structure_bytes,
        )
    return index, report


def build_index(
    text,
    b: int = DEFAULT_BLOCK_SIZE,
    sf: int = DEFAULT_SUPERBLOCK_FACTOR,
    backend: Backend = "rrr",
    locate: Locate = "full",
    *,
    sa_sample_rate: int = 32,
    occ_checkpoint_words: int = 4,
    ftab_k: int | None = None,
    block_mb: float = 64.0,
) -> tuple[FMIndex, BuildReport]:
    """Build a queryable index from a DNA string or code array, in memory.

    Parameters mirror the paper's tunables: ``b``/``sf`` control the RRR
    encoding (Figs. 5-7), ``backend`` selects succinct vs. checkpointed
    Occ (structure ablation), ``locate`` picks the host-side position
    store.  ``ftab_k`` additionally precomputes the k-mer jump-start
    table (:mod:`repro.index.ftab`, 4^k entries; Bowtie2's default order
    is 10) — queries then skip their first ``k`` backward-search steps
    with one table read, bit-identically.  ``block_mb`` bounds the
    suffix sort's working set, as in :func:`build_index_blockwise`; the
    stage arrays stay in memory and no file is written.
    """
    codes = _prepare(text, backend, locate)
    cfg = dict(b=b, sf=sf, backend=backend, locate=locate, sa_sample_rate=sa_sample_rate,
               occ_checkpoint_words=occ_checkpoint_words, ftab_k=ftab_k)
    return _run_stages(
        codes, _MemoryWork(), _fresh_state(None), _budget_rows(block_mb), None, cfg
    )


def build_index_blockwise(
    text,
    out_path: str | Path,
    *,
    b: int = DEFAULT_BLOCK_SIZE,
    sf: int = DEFAULT_SUPERBLOCK_FACTOR,
    backend: Backend = "rrr",
    locate: Locate = "full",
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

    The stages of :func:`build_index` run with their arrays in a work
    directory (``<out_path>.build`` unless ``work_dir`` is given), and
    the container at ``out_path`` is byte-identical to ``save_index_flat``
    of the in-memory build.  ``block_mb`` sets the working-set budget of
    the suffix-array rounds (``block_rows`` overrides it directly, mainly
    for tests).  With ``resume=True`` a build interrupted at any
    checkpoint continues from its work directory; resuming a different
    input/configuration raises :class:`BuildResumeError`.  The work
    directory must be absent, empty or a previous build's (it holds
    ``state.json``); any other path raises :class:`FileExistsError` and
    is left untouched.
    ``checkpoint_callback(label)`` is invoked after every durable state
    write — the fault-injection hook the kill/resume tests use.
    """
    codes = _prepare(text, backend, locate)
    block_rows = _budget_rows(block_mb) if block_rows is None else int(block_rows)
    cfg = dict(b=b, sf=sf, backend=backend, locate=locate, sa_sample_rate=sa_sample_rate,
               occ_checkpoint_words=occ_checkpoint_words, ftab_k=ftab_k)
    out_path = Path(out_path)
    work_path = Path(work_dir) if work_dir is not None else Path(str(out_path) + ".build")
    fp = _fingerprint(codes, block_rows, cfg)
    started_trace = False
    if measure_peak:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            started_trace = True
    try:
        state, resumed = _open_state(work_path, fp, resume)
        work = _DiskWork(work_path, checkpoint_callback)
        if not resumed:
            work.checkpoint(state, "init")
        index, report = _run_stages(codes, work, state, block_rows, out_path, cfg)
        if measure_peak:
            report.peak_alloc_bytes = int(tracemalloc.get_traced_memory()[1])
        report.resumed = resumed
        if resumed:
            tel = get_telemetry()
            if tel.enabled:
                tel.metrics.counter(
                    "index_blockwise_resumes_total", "Blockwise builds resumed"
                ).inc()
        # Release the memmaps the finalized index holds before deleting
        # their backing files.
        del index
        if not keep_work_dir:
            shutil.rmtree(work_path, ignore_errors=True)
        return report
    finally:
        if started_trace:
            tracemalloc.stop()
