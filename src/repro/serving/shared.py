"""Publish one index copy; attach N processes to the same physical pages.

An index is published either as a ``multiprocessing.shared_memory`` block
holding a flat container (:class:`SharedIndexBlock`) or as a flat file on
disk attached via ``np.memmap`` (:class:`FlatFileBlock`).  Both reduce to
the same thing: a byte buffer in the flat container format that
:func:`repro.index.flat.attach_index_from_buffer` rehydrates around
without copying.  Workers receive only a small picklable *spec* dict —
``{"kind": "shm", "name": ..., "size": ...}`` or
``{"kind": "mmap", "path": ...}`` — never the index itself, so spawning a
worker ships a few hundred bytes instead of the whole structure.

Lifecycle: the publishing process owns the block and must call
:meth:`~SharedIndexBlock.unlink` (or use the block as a context manager)
when serving ends; attachers only ``close()``.  On Python < 3.13,
attaching to a named ``SharedMemory`` from a child process registers it
with the ``resource_tracker``, which would unlink the segment when the
*child* exits — :func:`attach_index` unregisters the attachment to keep
ownership with the publisher.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from ..core.counters import OpCounters
from ..index.flat import (
    attach_index_from_buffer,
    export_index,
    flat_container_size,
    load_index_flat,
    map_flat_file,
    pack_flat_into,
    read_flat_manifest,
    save_index_flat,
)
from ..index.fm_index import FMIndex
from ..telemetry import get_telemetry


def _attach_untracked(name: str):
    """Attach to a named segment without resource-tracker registration.

    On Python < 3.13 ``SharedMemory(name=...)`` registers every attachment
    with the ``resource_tracker``, which (a) makes the tracker unlink the
    segment when an *attaching* process exits and (b) corrupts the
    tracker's cache when the owner later unregisters the same name.
    Suppressing registration for the duration of the attach keeps
    ownership solely with the publisher.  (3.13+ exposes ``track=False``
    for exactly this.)
    """
    from multiprocessing import shared_memory

    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover
        return shared_memory.SharedMemory(name=name)
    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def release_attachment(shm) -> None:
    """Best-effort close of a ``SharedMemory`` attachment.

    If index views still reference the mapping, ``mmap.close`` raises
    ``BufferError``; in that case drop the handle's own references and
    let the views' lifetime (usually process exit) reclaim the mapping —
    the alternative is a noisy exception from ``SharedMemory.__del__``.
    """
    try:
        shm.close()
    except BufferError:
        shm._mmap = None
        if getattr(shm, "_fd", -1) >= 0:
            try:
                os.close(shm._fd)
            except OSError:  # pragma: no cover
                pass
            shm._fd = -1


class SharedIndexBlock:
    """Owner-side handle for an index published in shared memory.

    Packs the flat container for ``index`` into one freshly created
    ``SharedMemory`` segment.  Every worker that attaches maps the same
    physical pages, so resident memory grows by roughly one index total,
    not one index per worker.
    """

    kind = "shm"

    def __init__(self, index: FMIndex, name: str | None = None):
        from multiprocessing import shared_memory

        meta, segments = export_index(index)
        size = flat_container_size(meta, segments)
        self.shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        self.size = int(size)
        buf = np.frombuffer(self.shm.buf, dtype=np.uint8, count=self.size)
        pack_flat_into(buf, meta, segments)
        del buf
        self._unlinked = False
        tel = get_telemetry()
        tel.metrics.gauge(
            "serving_shared_index_bytes", "Bytes of index published in shared memory"
        ).set(self.size)

    @property
    def spec(self) -> dict:
        """Picklable attachment recipe for worker processes."""
        return {"kind": "shm", "name": self.shm.name, "size": self.size}

    def attach(self, counters: OpCounters | None = None) -> FMIndex:
        """Rehydrate an index view in the *owning* process (no copy)."""
        u8 = np.frombuffer(self.shm.buf, dtype=np.uint8, count=self.size)
        return attach_index_from_buffer(u8, counters=counters)

    def close(self) -> None:
        """Release this process's mapping (owner keeps the segment)."""
        release_attachment(self.shm)

    def unlink(self) -> None:
        """Destroy the segment.  Call exactly once, after workers exit."""
        if self._unlinked:
            return
        self._unlinked = True
        self.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedIndexBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()

    def __repr__(self) -> str:
        return f"SharedIndexBlock(name={self.shm.name!r}, bytes={self.size})"


class FlatFileBlock:
    """Index published as a flat container file, attached via ``mmap``.

    Used either for an existing on-disk flat index (``owns_file=False``;
    ``unlink`` leaves it alone) or as the fallback when shared memory is
    unavailable (a temp file the block deletes on ``unlink``).  Attached
    processes share pages through the OS page cache.
    """

    kind = "mmap"

    def __init__(self, path: str | Path, owns_file: bool = False):
        self.path = str(path)
        self.owns_file = bool(owns_file)
        read_flat_manifest(map_flat_file(self.path))
        self.size = os.path.getsize(self.path)

    @classmethod
    def from_index(cls, index: FMIndex, dir: str | None = None) -> "FlatFileBlock":
        fd, path = tempfile.mkstemp(suffix=".bwvr", prefix="repro-index-", dir=dir)
        os.close(fd)
        save_index_flat(index, path)
        return cls(path, owns_file=True)

    @property
    def spec(self) -> dict:
        return {"kind": "mmap", "path": self.path}

    def attach(self, counters: OpCounters | None = None) -> FMIndex:
        return load_index_flat(self.path, counters=counters)

    def close(self) -> None:
        pass

    def unlink(self) -> None:
        if self.owns_file:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            self.owns_file = False

    def __enter__(self) -> "FlatFileBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()

    def __repr__(self) -> str:
        return f"FlatFileBlock(path={self.path!r}, bytes={self.size})"


def publish_index(
    index: FMIndex, mode: str = "auto", dir: str | None = None
) -> SharedIndexBlock | FlatFileBlock:
    """Publish ``index`` for multi-process attachment.

    ``mode``: ``"shm"`` (shared memory, fail hard), ``"mmap"`` (temp flat
    file), or ``"auto"`` (shared memory with mmap fallback when segment
    creation fails, e.g. no ``/dev/shm``).
    """
    if mode not in ("auto", "shm", "mmap"):
        raise ValueError(f"unknown publish mode {mode!r}")
    if mode in ("auto", "shm"):
        try:
            return SharedIndexBlock(index)
        except (OSError, ImportError):
            if mode == "shm":
                raise
    return FlatFileBlock.from_index(index, dir=dir)


def attach_index(
    spec: dict, counters: OpCounters | None = None
) -> tuple[FMIndex, object | None]:
    """Worker-side attach from a picklable spec.

    Returns ``(index, handle)``; ``handle`` is the ``SharedMemory``
    attachment that must stay referenced (and be ``close()``-d when the
    worker exits) for shm specs, ``None`` for mmap specs.  Attach time is
    recorded on the ``serving_attach_seconds`` histogram.
    """
    tel = get_telemetry()
    t0 = time.perf_counter()
    kind = spec.get("kind")
    if kind == "shm":
        shm = _attach_untracked(spec["name"])
        u8 = np.frombuffer(shm.buf, dtype=np.uint8, count=int(spec["size"]))
        index = attach_index_from_buffer(u8, counters=counters)
        handle: object | None = shm
    elif kind == "mmap":
        index = load_index_flat(spec["path"], counters=counters)
        handle = None
    else:
        raise ValueError(f"unknown index spec kind {kind!r}")
    tel.metrics.histogram(
        "serving_attach_seconds",
        "Wall seconds to attach a process to a published index",
        labelnames=("kind",),
    ).observe(time.perf_counter() - t0, kind=kind)
    return index, handle
