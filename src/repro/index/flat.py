"""Flat zero-copy index container: build once, map everywhere, copy never.

BWaveR builds the BWT and suffix array once per reference and keeps them
"in a file" so that later mapping jobs skip suffix sorting.  This module
is that file's one format and its one reader and writer.  The index is a
shared, read-only artifact, so the *encoded* layout (every RRR node's
classes, partial sums and offset stream, the C array, the packed Occ
words, the full or sampled suffix array) is written to a versioned
binary container whose array segments are 64-byte aligned.  Opening the
container is ``np.memmap`` plus a JSON manifest read — O(1) in the index
size — and the arrays page in lazily from the OS page cache, so N
processes mapping the same file share one physical copy.

Container layout (little-endian)::

    bytes 0..7    magic  b"BWVRFLT1"
    bytes 8..11   uint32 container format version (1)
    bytes 12..15  uint32 manifest length M in bytes
    bytes 16..23  uint64 data_start (64-byte aligned file offset)
    bytes 24..    manifest: UTF-8 JSON {"meta": ..., "segments": [...]}
    data_start..  segments, each 64-byte aligned, raw C-order array bytes

Each manifest segment entry records ``name``, ``dtype`` (numpy dtype
string), ``shape``, ``offset`` (relative to ``data_start``), ``nbytes``
and ``crc32``.  Checksums are verified on demand (``verify=True`` or
:func:`verify_flat_index`), not on open: touching every page on open
would defeat the O(1) attach that is the point of the format.  Every
failure to map, parse or verify a container raises
:class:`IndexFormatError`.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..core.bwt_structure import BWTStructure
from ..sequence.sampled_sa import FullSA, SampledSA
from ..telemetry import get_telemetry
from .fm_index import FMIndex
from .ftab import Ftab
from .occ_table import OccTable

MAGIC = b"BWVRFLT1"
FLAT_VERSION = 1
ALIGN = 64
#: Most matrix rows a container holds: row numbers are stored as uint32.
MAX_ROWS = 2**32 - 1
_HEADER = struct.Struct("<8sIIQ")  # magic, version, manifest_len, data_start


class IndexFormatError(ValueError):
    """Raised when a container cannot be mapped, is missing fields, is
    version-incompatible or truncated, or fails its checksum verification."""


def _align_up(n: int, align: int = ALIGN) -> int:
    return (n + align - 1) // align * align


# --------------------------------------------------------------------------
# Export: FMIndex -> (meta, named segments)
# --------------------------------------------------------------------------


def export_index(index: FMIndex) -> tuple[dict, dict[str, np.ndarray]]:
    """Decompose ``index`` into a JSON-able meta dict and named arrays.

    The container holds only what the query path reads.  Segment names:
    ``backend/...`` (the encoded succinct layout, which is also the only
    copy of the BWT), ``sa`` (the full suffix array as ``uint32``,
    written only for full-SA locate), ``locate/...`` for locate
    structures with their own storage (a sampled SA's ``samples`` and
    its RRR mark vector ``marks/{classes,partial_sums,offset_words,
    offset_sums}``), and ``ftab/{bounds,steps,tails}`` for the optional
    k-mer jump-start table (a versioned optional segment group —
    containers written without it load fine).

    Every row number the container stores is 32-bit (the SA, the ftab
    bounds, the sampled SA's quotients), so an index of ``2**32`` or
    more rows is refused here.
    """
    backend = index.backend
    if isinstance(backend, BWTStructure):
        kind = "rrr"
    elif isinstance(backend, OccTable):
        kind = "occ"
    else:
        raise IndexFormatError(
            f"cannot export backend of type {type(backend).__name__}"
        )
    if index.n_rows > MAX_ROWS:
        raise IndexFormatError(
            f"index of {index.n_rows:,} rows exceeds the container's "
            f"32-bit row numbers (at most {MAX_ROWS:,} rows)"
        )
    backend_meta, backend_arrays = backend.export_arrays()
    segments: dict[str, np.ndarray] = {}
    loc = index.locate_structure
    if isinstance(loc, FullSA):
        segments["sa"] = np.ascontiguousarray(loc.sa, dtype=np.uint32)
    for name, arr in backend_arrays.items():
        segments[f"backend/{name}"] = arr
    if loc is None:
        locate_kind, locate_meta = "none", {}
    elif isinstance(loc, FullSA):
        locate_kind, locate_meta = "full", {}
    elif isinstance(loc, SampledSA):
        locate_kind, (locate_meta, locate_arrays) = "sampled", loc.export_arrays()
        for name, arr in locate_arrays.items():
            segments[f"locate/{name}"] = arr
    else:
        raise IndexFormatError(
            f"cannot export locate structure of type {type(loc).__name__}"
        )
    meta = {
        "version": FLAT_VERSION,
        "kind": "fmindex",
        "backend": kind,
        "backend_meta": backend_meta,
        "locate": locate_kind,
        "locate_meta": locate_meta,
    }
    if index.ftab is not None:
        ftab_meta, ftab_arrays = index.ftab.export_arrays()
        meta["ftab"] = ftab_meta
        for name, arr in ftab_arrays.items():
            segments[f"ftab/{name}"] = arr
    return meta, segments


# --------------------------------------------------------------------------
# Container layout / writing
# --------------------------------------------------------------------------


def _layout(meta: dict, segments: dict[str, np.ndarray]) -> tuple[bytes, list[dict], int, int]:
    """Compute the serialized manifest and segment placement.

    Returns ``(manifest_bytes, entries, data_start, total_size)``; entry
    offsets are relative to ``data_start`` so the manifest's own length
    never perturbs them.
    """
    entries: list[dict] = []
    rel = 0
    for name, arr in segments.items():
        arr = np.ascontiguousarray(arr)
        rel = _align_up(rel)
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": rel,
                "nbytes": int(arr.nbytes),
                "crc32": zlib.crc32(arr.tobytes()) & 0xFFFFFFFF,
            }
        )
        rel += int(arr.nbytes)
    manifest = json.dumps({"meta": meta, "segments": entries}).encode("utf-8")
    data_start = _align_up(_HEADER.size + len(manifest))
    total_size = data_start + rel
    return manifest, entries, data_start, max(total_size, data_start)


def flat_container_size(meta: dict, segments: dict[str, np.ndarray]) -> int:
    """Total container size in bytes (used to size shared-memory blocks)."""
    return _layout(meta, segments)[3]


def pack_flat_into(buf, meta: dict, segments: dict[str, np.ndarray]) -> int:
    """Serialize the container into a writable buffer (memoryview/ndarray).

    Writes header, manifest and every segment directly — no intermediate
    full-container copy — and returns the number of bytes used.  The
    buffer must be at least :func:`flat_container_size` long.
    """
    manifest, entries, data_start, total = _layout(meta, segments)
    out = np.frombuffer(buf, dtype=np.uint8, count=total) if not isinstance(buf, np.ndarray) else buf
    if out.nbytes < total:
        raise IndexFormatError(
            f"buffer of {out.nbytes} B too small for {total} B container"
        )
    header = _HEADER.pack(MAGIC, FLAT_VERSION, len(manifest), data_start)
    out[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    out[len(header) : len(header) + len(manifest)] = np.frombuffer(manifest, dtype=np.uint8)
    out[len(header) + len(manifest) : data_start] = 0
    prev_end = data_start
    for entry, arr in zip(entries, segments.values()):
        start = data_start + entry["offset"]
        out[prev_end:start] = 0  # alignment padding
        flat = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
        out[start : start + entry["nbytes"]] = flat
        prev_end = start + entry["nbytes"]
    return total


def save_index_flat(index: FMIndex, path: str | Path) -> int:
    """Write ``index`` to ``path`` in the flat container format.

    Returns the container size in bytes.
    """
    meta, segments = export_index(index)
    return _write_container(meta, segments, path)


#: Slice size for streaming segment bytes to disk.  Bounds the transient
#: copy per write to a few MB even when a segment is a multi-GB memmap.
_STREAM_CHUNK = 1 << 20


class FlatWriter:
    """Append/finalize writer producing a flat container incrementally.

    Every on-disk container is written through this class.  Segments are
    appended *as their arrays finish* — the blockwise builder passes
    ``np.memmap`` views over spill files — and each :meth:`add_segment`
    streams the bytes to a temporary data file in ``_STREAM_CHUNK``
    (1 MiB) slices with a rolling CRC32, so peak RSS stays O(chunk).

    ``finalize(meta)`` writes header + manifest + the accumulated data
    region to ``path`` atomically (temp file + rename), with the same
    alignment rule, manifest JSON and CRCs as :func:`pack_flat_into`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._data_path = self.path.with_name(self.path.name + ".data.tmp")
        self._fh = open(self._data_path, "wb")
        self._entries: list[dict] = []
        self._rel = 0
        self._done = False

    def add_segment(self, name: str, arr: np.ndarray) -> None:
        if self._done:
            raise IndexFormatError("FlatWriter already finalized")
        arr = np.ascontiguousarray(arr)
        pad = _align_up(self._rel) - self._rel
        if pad:
            self._fh.write(b"\x00" * pad)
            self._rel += pad
        flat = arr.reshape(-1).view(np.uint8)
        crc = 0
        for i in range(0, flat.nbytes, _STREAM_CHUNK):
            chunk = flat[i : i + _STREAM_CHUNK]
            crc = zlib.crc32(chunk, crc)
            self._fh.write(chunk)
        self._entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": self._rel,
                "nbytes": int(arr.nbytes),
                "crc32": crc & 0xFFFFFFFF,
            }
        )
        self._rel += int(arr.nbytes)

    def finalize(self, meta: dict) -> int:
        """Assemble the container at ``path``; returns its size in bytes."""
        if self._done:
            raise IndexFormatError("FlatWriter already finalized")
        self._done = True
        self._fh.close()
        manifest = json.dumps({"meta": meta, "segments": self._entries}).encode("utf-8")
        data_start = _align_up(_HEADER.size + len(manifest))
        total = data_start + self._rel
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "wb") as out, open(self._data_path, "rb") as src:
                out.write(_HEADER.pack(MAGIC, FLAT_VERSION, len(manifest), data_start))
                out.write(manifest)
                out.write(b"\x00" * (data_start - _HEADER.size - len(manifest)))
                shutil.copyfileobj(src, out, _STREAM_CHUNK)
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)
            self._data_path.unlink(missing_ok=True)
        return max(total, data_start)

    def abort(self) -> None:
        """Discard partial output (safe to call after errors)."""
        if not self._done:
            self._done = True
            self._fh.close()
        self._data_path.unlink(missing_ok=True)

    def __enter__(self) -> "FlatWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()


def _write_container(meta: dict, segments: dict[str, np.ndarray], path: str | Path) -> int:
    with FlatWriter(path) as writer:
        for name, arr in segments.items():
            writer.add_segment(name, arr)
        return writer.finalize(meta)


def save_multiref_index_flat(multi, path: str | Path) -> int:
    """Write a :class:`~repro.index.multiref.MultiReferenceIndex`: the inner
    index plus its sequence names (meta) and lengths (a segment)."""
    from .multiref import MultiReferenceIndex

    if not isinstance(multi, MultiReferenceIndex):
        raise IndexFormatError(
            f"expected a MultiReferenceIndex, got {type(multi).__name__}"
        )
    meta, segments = export_index(multi.index)
    meta["multiref"] = {"names": list(multi.names)}
    segments["seq_lengths"] = np.ascontiguousarray(multi.lengths, dtype=np.int64)
    return _write_container(meta, segments, path)


# --------------------------------------------------------------------------
# Attach: buffer -> FMIndex (no copies)
# --------------------------------------------------------------------------


def read_flat_manifest(buf: np.ndarray) -> tuple[dict, list[dict], int]:
    """Parse and validate the header + manifest of a container buffer.

    Returns ``(meta, segment_entries, data_start)``.
    """
    if buf.nbytes < _HEADER.size:
        raise IndexFormatError("flat container truncated: no header")
    magic, version, manifest_len, data_start = _HEADER.unpack(
        buf[: _HEADER.size].tobytes()
    )
    if magic != MAGIC:
        if magic[:2] == b"PK":
            raise IndexFormatError(
                ".npz index archives are no longer read; rebuild the index "
                "with `bwaver-repro index`"
            )
        raise IndexFormatError(
            f"not a flat index container (bad magic {magic!r})"
        )
    if version != FLAT_VERSION:
        raise IndexFormatError(
            f"unsupported flat container version {version} "
            f"(this build reads version {FLAT_VERSION})"
        )
    if _HEADER.size + manifest_len > buf.nbytes or data_start > buf.nbytes:
        raise IndexFormatError("flat container truncated: manifest out of range")
    try:
        doc = json.loads(buf[_HEADER.size : _HEADER.size + manifest_len].tobytes())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(f"flat container manifest is corrupted: {exc}") from exc
    if not isinstance(doc, dict) or "meta" not in doc or "segments" not in doc:
        raise IndexFormatError("flat container manifest missing meta/segments")
    for entry in doc["segments"]:
        end = data_start + entry["offset"] + entry["nbytes"]
        if end > buf.nbytes:
            raise IndexFormatError(
                f"flat container truncated: segment {entry['name']!r} "
                f"ends at {end} > file size {buf.nbytes}"
            )
    return doc["meta"], doc["segments"], data_start


def _segment_views(
    buf: np.ndarray, entries: list[dict], data_start: int, verify: bool
) -> dict[str, np.ndarray]:
    views: dict[str, np.ndarray] = {}
    for entry in entries:
        start = data_start + entry["offset"]
        raw = buf[start : start + entry["nbytes"]]
        if verify:
            # CRC the mapped bytes in place: a tobytes() copy would add
            # the largest segment to peak RSS.
            if (zlib.crc32(raw) & 0xFFFFFFFF) != entry["crc32"]:
                raise IndexFormatError(
                    f"checksum mismatch for segment {entry['name']!r}: "
                    f"container is corrupted"
                )
        views[entry["name"]] = raw.view(np.dtype(entry["dtype"])).reshape(
            entry["shape"]
        )
    return views


def _group(views: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The segments under ``prefix``, keyed by the rest of their names."""
    return {
        name.removeprefix(prefix): arr
        for name, arr in views.items()
        if name.startswith(prefix)
    }


def _rehydrate(meta: dict, views: dict[str, np.ndarray]) -> FMIndex:
    if meta.get("kind") != "fmindex":
        raise IndexFormatError(f"unknown container kind {meta.get('kind')!r}")
    bm = meta["backend_meta"]
    try:
        backend_views = _group(views, "backend/")
        kind = meta.get("backend")
        if kind == "rrr":
            backend = BWTStructure.from_arrays(bm, backend_views)
        elif kind == "occ":
            backend = OccTable.from_arrays(bm, backend_views)
        else:
            raise IndexFormatError(f"unknown backend kind {kind!r}")
        locate = meta.get("locate", "none")
        if locate == "full":
            loc = FullSA.from_arrays({}, {"sa": views["sa"]})
        elif locate == "sampled":
            if "locate/marks/classes" not in views:
                raise IndexFormatError(
                    "row-sampled locate containers are no longer read; "
                    "rebuild the index with `bwaver-repro index`"
                )
            loc = SampledSA.from_arrays(meta["locate_meta"], _group(views, "locate/"))
        elif locate == "none":
            loc = None
        else:
            raise IndexFormatError(f"unknown locate kind {locate!r}")
        # Optional k-mer jump-start table: containers built without one
        # attach with ftab=None.
        ftab = None
        if meta.get("ftab"):
            try:
                ftab = Ftab.from_arrays(meta["ftab"], _group(views, "ftab/"))
            except ValueError as exc:
                raise IndexFormatError(
                    f"flat container ftab segment invalid: {exc}"
                ) from exc
    except KeyError as exc:
        raise IndexFormatError(f"flat container missing field: {exc}") from exc
    return FMIndex(backend, locate_structure=loc, ftab=ftab)


def attach_index_from_buffer(buf, verify: bool = False) -> FMIndex:
    """Rehydrate an :class:`FMIndex` around a container buffer, zero-copy.

    ``buf`` is any byte buffer holding a flat container — an
    ``np.memmap``, a ``multiprocessing.shared_memory`` view, or plain
    bytes.  Every structure array is a *view* into ``buf``; the caller
    must keep the underlying mapping alive for the index's lifetime
    (numpy view chains do this automatically for memmaps).
    """
    u8 = buf if isinstance(buf, np.ndarray) else np.frombuffer(buf, dtype=np.uint8)
    meta, entries, data_start = read_flat_manifest(u8)
    views = _segment_views(u8, entries, data_start, verify=verify)
    return _rehydrate(meta, views)


def _attach(meta: dict, views: dict[str, np.ndarray]):
    """Rehydrate an ``FMIndex``, wrapped as a ``MultiReferenceIndex``
    when the manifest carries a sequence table."""
    index = _rehydrate(meta, views)
    if not meta.get("multiref"):
        return index
    from .multiref import MultiReferenceIndex

    try:
        names = meta["multiref"]["names"]
        lengths = np.asarray(views["seq_lengths"], dtype=np.int64)
    except (KeyError, TypeError) as exc:
        raise IndexFormatError(f"flat container missing field: {exc}") from exc
    multi = MultiReferenceIndex.__new__(MultiReferenceIndex)
    multi.names = tuple(names)
    multi.ordinals = {n: i for i, n in enumerate(multi.names)}
    multi.lengths = lengths
    multi.offsets = np.concatenate(([0], np.cumsum(lengths)))
    multi.index = index
    multi.build_report = None
    return multi


def map_flat_file(path: str | Path) -> np.memmap:
    """Memory-map ``path`` read-only; failures (missing file, directory,
    empty file) raise :class:`IndexFormatError`."""
    try:
        return np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise IndexFormatError(
            f"cannot map flat index {path}: {type(exc).__name__}: {exc}"
        ) from exc


@contextmanager
def _mapped(path: str | Path, verify: bool):
    """Map ``path`` once and parse it — the opener behind every loader.

    Yields ``(meta, segment views)``.  Mapping failures (missing file,
    directory, empty file) surface as :class:`IndexFormatError`, and each
    completed open is recorded under the ``index.load_flat`` span and the
    ``index_flat_*`` metrics.
    """
    tel = get_telemetry()
    with tel.span("index.load_flat", path=str(path)):
        t0 = time.perf_counter()
        mm = map_flat_file(path)
        meta, entries, data_start = read_flat_manifest(mm)
        yield meta, _segment_views(mm, entries, data_start, verify=verify)
        tel.metrics.counter(
            "index_flat_loads_total", "Flat (mmap) index attaches"
        ).inc()
        tel.metrics.histogram(
            "index_flat_open_seconds", "Wall seconds to open+attach a flat index"
        ).observe(time.perf_counter() - t0)


def _load(path, verify: bool, multiref: bool | None):
    """Open ``path``; ``multiref`` True/False demands that kind of index."""
    with _mapped(path, verify) as (meta, views):
        if multiref is not None and bool(meta.get("multiref")) != multiref:
            if multiref:
                raise IndexFormatError(
                    "container holds a single-reference index; use load_index_flat"
                )
            raise IndexFormatError(
                "container holds a multi-reference index; use load_multiref_index_flat"
            )
        return _attach(meta, views)


def load_any_index_auto(path: str | Path, verify: bool = False):
    """Open a container of either kind: returns an :class:`FMIndex`, or a
    :class:`~repro.index.multiref.MultiReferenceIndex` when the manifest
    holds a sequence table.

    With ``verify=False`` (the default) no array data is read at open
    time — O(1) in the index size; pages fault in lazily as queries touch
    them.  ``verify=True`` checks every segment CRC up front (reads the
    whole file once).
    """
    return _load(path, verify, multiref=None)


def load_index_flat(path: str | Path, verify: bool = False) -> FMIndex:
    """:func:`load_any_index_auto` for single-reference containers only.

    Also bound as the public ``repro.load_index``.  Integrity checking is
    opt-in: segment CRCs are checked only with ``verify=True``.
    """
    return _load(path, verify, multiref=False)


def load_multiref_index_flat(path: str | Path):
    """:func:`load_any_index_auto` for containers written by
    :func:`save_multiref_index_flat` only (lazy: no CRC pass)."""
    return _load(path, False, multiref=True)


def verify_flat_index(path: str | Path) -> list[str]:
    """Check every segment CRC of a container; returns verified names.

    Raises :class:`IndexFormatError` on the first mismatch.  This is the
    explicit integrity pass the lazy loaders skip by default.
    """
    with _mapped(path, verify=True) as (_, views):
        return sorted(views)
