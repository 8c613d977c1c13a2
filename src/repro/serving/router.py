"""Sharded multi-genome serving: catalog, LRU activation, scatter-gather.

The serving spine so far assumes one index = one pool.  Real deployments
serve a *catalog* of references — many genomes, not all of which fit in
memory at once.  This module adds the missing tier:

* :class:`ShardCatalog` registers N named references, each backed by its
  own flat container on disk.  Activation attaches the container
  zero-copy (mmap); deactivation drops it.  Activations are LRU-managed
  under a configurable memory budget, so the catalog may be far larger
  than RAM — cold shards cost only disk.  With ``pool_workers > 0`` the
  catalog runs one :class:`~repro.serving.pool.MapperPool` whose workers
  attach every active container and map a wave's shards as one job.
* :class:`ShardRouter` maps a read batch over the selected shards (each
  once, in catalog order) one budget wave at a time — each wave one
  mapping job on a stack of every resident shard, whose stackable
  shards share one step loop and one locate walk
  (:class:`~repro.serving.pool.IndexShelf`) — and merges the
  per-shard strand hits into :class:`~repro.index.multiref.MultiRefMapping`
  rows with stable global ordering: hits sort by catalog ordinal,
  then position, then strand — exactly the order
  :class:`~repro.index.multiref.MultiReferenceIndex` produces for the
  same sequences, which makes the monolithic multi-reference index a
  bit-exact oracle for the sharded path (the ``router`` differential
  self-check enforces this).
* :class:`RouterMappingService` is the
  :class:`~repro.serving.coalescer.MappingService` of a catalog: every
  request passes its admission cap and coalescer, concurrent
  whole-catalog requests share fan-out batches, and demux is
  bit-identical to per-request ``ShardRouter.map_reads``.

Per-shard health (state, worker liveness, queue depth, degraded flag,
activation/eviction counters) is surfaced through :meth:`ShardRouter
.stats` and lands on the web tier's ``/healthz``; worker fields come
from the catalog's one pool.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Sequence

from ..index.multiref import MultiRefMapping, ReferenceHit
from ..mapper.results import MappedBatch
from ..telemetry import get_telemetry
from .coalescer import MappingService, RequestCoalescer

#: Shard lifecycle states.
SHARD_INACTIVE = "inactive"
SHARD_ACTIVE = "active"


class RouterError(RuntimeError):
    """Scatter-gather dispatch failure."""


class UnknownShardError(KeyError):
    """A request named a shard the catalog does not hold."""


class Shard:
    """One named reference: a flat container plus its serving state.

    Cold shards hold only the container path and its size; activation
    opens the container (an mmap, O(1) in index size), which is where a
    corrupt one fails.  The index over that mmap is kept resident only
    for in-process mapping: behind a catalog pool it is dropped again and
    reopened only if a failed dispatch falls back to the in-process rung,
    so the pool's forked workers inherit no container mapping they could
    not release.
    """

    def __init__(
        self,
        name: str,
        flat_path: str | Path,
        *,
        owns_file: bool = False,
        resident: bool = True,
    ):
        self.name = str(name)
        self.flat_path = str(flat_path)
        self.bytes = os.path.getsize(self.flat_path)
        self.owns_file = bool(owns_file)
        self.resident = bool(resident)
        self.state = SHARD_INACTIVE
        self.index = None
        self.degraded = False
        self.last_error = ""
        self.activations = 0
        self.batches = 0
        self.reads = 0
        self.last_used = 0  # catalog use-sequence number (LRU key)
        self.pins = 0  # in-flight dispatches; pinned shards never evict

    # -- lifecycle ---------------------------------------------------------

    def activate(self) -> None:
        if self.state == SHARD_ACTIVE:
            return
        from ..index.flat import load_index_flat

        index = load_index_flat(self.flat_path)
        self.index = index if self.resident else None
        self.state = SHARD_ACTIVE
        self.activations += 1

    def deactivate(self) -> None:
        self.index = None
        self.state = SHARD_INACTIVE

    # -- serving -----------------------------------------------------------

    def resident_index(self):
        """The active shard's index, reopened if it was not kept."""
        if self.state != SHARD_ACTIVE:
            raise RouterError(f"shard {self.name!r} is not active")
        if self.index is None:
            from ..index.flat import load_index_flat

            self.index = load_index_flat(self.flat_path)
        return self.index

    def map_reads(self, reads: list[str]):
        """Map a batch on this shard alone, in process (the router maps
        whole waves through :meth:`ShardCatalog.map_wave`)."""
        from ..mapper.mapper import Mapper

        return Mapper(self.resident_index(), locate=True).map_reads(reads)

    # -- introspection -----------------------------------------------------

    def health(self, pool: dict | None = None, pool_workers: int = 0) -> dict:
        """This shard's ``/healthz`` entry; ``pool`` is the catalog
        pool's :meth:`~repro.serving.pool.MapperPool.health`, once the
        catalog's ``pool_workers`` workers have started."""
        doc = {
            "name": self.name,
            "state": self.state,
            "bytes": self.bytes,
            "pool_workers": pool_workers,
            "degraded": self.degraded,
            "last_error": self.last_error,
            "activations": self.activations,
            "batches": self.batches,
            "reads": self.reads,
        }
        if pool is not None and self.state == SHARD_ACTIVE:
            doc["workers_alive"] = pool["workers_alive"]
            doc["queue_depth"] = pool["queue_depth"]
            doc["generation"] = pool["generation"]
            if pool["workers_alive"] < pool["workers"]:
                doc["degraded"] = True
        return doc

    def __repr__(self) -> str:
        return f"Shard(name={self.name!r}, state={self.state!r}, bytes={self.bytes})"


class ShardCatalog:
    """Registry of named references with LRU activation under a budget.

    Registration order defines the catalog ordinal used for cross-shard
    hit ordering (the same scheme as
    :attr:`~repro.index.multiref.MultiReferenceIndex.ordinals`).

    ``memory_budget_bytes`` bounds the summed container size of active
    shards; activating past the budget evicts the least-recently-used
    unpinned shard first.  A single shard larger than the whole budget
    still activates (serving beats the soft budget), and the overrun is
    visible in :meth:`stats`.

    ``pool_workers`` sizes the catalog's one
    :class:`~repro.serving.pool.MapperPool`, started at the first
    activation: its workers attach the active containers and map each
    wave as one job; an eviction releases the container in every worker.
    With ``0`` waves map in process through the same kind of
    :class:`~repro.serving.pool.IndexShelf` — one stack over the active
    shards — which is also the rung a failed pool dispatch falls back to.
    """

    def __init__(
        self,
        *,
        memory_budget_bytes: int | None = None,
        pool_workers: int = 0,
        start_method: str | None = None,
    ):
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be >= 1 (or None)")
        self.memory_budget_bytes = memory_budget_bytes
        self.pool_workers = int(pool_workers)
        self.start_method = start_method
        self._shards: dict[str, Shard] = {}  # insertion order = ordinal
        self._lock = threading.RLock()
        self._use_seq = 0
        self.evictions = 0
        self._spool: tempfile.TemporaryDirectory | None = None
        self._closed = False
        self.pool = None
        #: The in-process rung's resident indexes, by shard name.
        self._shelf = None

    # -- registration ------------------------------------------------------

    def register(self, name: str, flat_path: str | Path, *, owns_file: bool = False) -> Shard:
        """Register an on-disk flat container as shard ``name``."""
        with self._lock:
            if name in self._shards:
                raise ValueError(f"duplicate shard name {name!r}")
            shard = Shard(
                name, flat_path, owns_file=owns_file, resident=self.pool_workers == 0
            )
            self._shards[shard.name] = shard
            return shard

    def register_index(self, name: str, index) -> Shard:
        """Serialize ``index`` into the catalog spool dir and register it."""
        from ..index.flat import save_index_flat

        path = Path(self._spool_dir()) / f"{len(self._shards):04d}_{name}.bwvr"
        save_index_flat(index, path)
        return self.register(name, path, owns_file=True)

    def register_sequence(
        self, name: str, sequence: str, b: int = 15, sf: int = 50, backend: str = "rrr"
    ) -> Shard:
        """Build a full-locate index for ``sequence`` and register it."""
        from ..index.builder import build_index

        index, _ = build_index(sequence, b=b, sf=sf, backend=backend, locate="full")
        return self.register_index(name, index)

    @classmethod
    def from_manifest(cls, path: str | Path, **kwargs) -> "ShardCatalog":
        """Load a catalog manifest: ``{"shards": [{"name": ..., "path":
        flat-container} | {"name": ..., "fasta": fasta-file}, ...]}``.

        ``path`` entries are registered in place (no copy); ``fasta``
        entries are indexed into the catalog spool directory.  Relative
        entry paths resolve against the manifest's directory.
        """
        path = Path(path)
        doc = json.loads(path.read_text())
        entries = doc.get("shards")
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"manifest {path} has no 'shards' list")
        catalog = cls(**kwargs)
        try:
            for entry in entries:
                name = entry.get("name")
                if not name:
                    raise ValueError(f"manifest entry without a name: {entry}")
                if "path" in entry:
                    catalog.register(name, _resolve(path.parent, entry["path"]))
                elif "fasta" in entry:
                    from ..io.fasta import read_fasta

                    records = read_fasta(_resolve(path.parent, entry["fasta"]))
                    sequence = "".join(rec.sequence for rec in records)
                    catalog.register_sequence(name, sequence)
                else:
                    raise ValueError(
                        f"manifest entry {name!r} needs 'path' or 'fasta'"
                    )
        except BaseException:
            catalog.close()
            raise
        return catalog

    # -- lookup ------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._shards)

    @property
    def ordinals(self) -> dict[str, int]:
        with self._lock:
            return {n: i for i, n in enumerate(self._shards)}

    def shard(self, name: str) -> Shard:
        try:
            return self._shards[name]
        except KeyError:
            raise UnknownShardError(name) from None

    def selection(self, names: Sequence[str]) -> list[str]:
        """The shards ``names`` select, once each and in catalog order;
        an unknown name raises :class:`UnknownShardError`.  Every request
        maps its selection, so repeats and orderings of one set of names
        are one mapping job."""
        wanted = {self.shard(n).name for n in names}
        return [n for n in self.names if n in wanted]

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    # -- activation / LRU --------------------------------------------------

    def active_names(self) -> list[str]:
        with self._lock:
            return [s.name for s in self._shards.values() if s.state == SHARD_ACTIVE]

    def active_bytes(self) -> int:
        with self._lock:
            return sum(
                s.bytes for s in self._shards.values() if s.state == SHARD_ACTIVE
            )

    def acquire(self, names: Sequence[str]) -> list[Shard]:
        """Activate (LRU-evicting as needed) and pin the named shards.

        Pinned shards are immune to eviction until :meth:`release`; the
        pin makes a concurrent activation wave unable to evict a shard
        that is mid-dispatch.  A shard that fails to activate (say, a
        corrupt container) is flagged degraded with ``last_error``, the
        pins already taken are dropped, and :class:`RouterError` names it.
        """
        with self._lock:
            if self._closed:
                raise RouterError("catalog is closed")
            shards = [self.shard(n) for n in names]
            wanted = set(names)
            pinned: list[Shard] = []
            try:
                for shard in shards:
                    if shard.state != SHARD_ACTIVE:
                        self._make_room_locked(shard.bytes, keep=wanted)
                        self._activate_locked(shard)
                    self._use_seq += 1
                    shard.last_used = self._use_seq
                    shard.pins += 1
                    pinned.append(shard)
            except BaseException:
                self.release(pinned)
                raise
            return shards

    def _activate_locked(self, shard: Shard) -> None:
        try:
            if self.pool_workers > 0 and self.pool is None:
                # Fork before any container is mapped in this process.
                from .pool import MapperPool

                self.pool = MapperPool(
                    catalog=True, workers=self.pool_workers, start_method=self.start_method
                )
            shard.activate()
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            shard.degraded = True
            shard.last_error = f"activation failed: {reason}"
            raise RouterError(
                f"shard {shard.name!r} failed to activate: {reason}"
            ) from exc
        get_telemetry().metrics.counter(
            "router_shard_activations_total",
            "Shard activations (cold mmap attach)",
        ).inc()

    def release(self, shards: Sequence[Shard]) -> None:
        with self._lock:
            for shard in shards:
                shard.pins = max(0, shard.pins - 1)

    def _make_room_locked(self, incoming: int, keep: set[str]) -> None:
        budget = self.memory_budget_bytes
        if budget is None:
            return
        while self.active_bytes() + incoming > budget:
            victims = [
                s
                for s in self._shards.values()
                if s.state == SHARD_ACTIVE and s.pins == 0 and s.name not in keep
            ]
            if not victims:
                break  # over budget, tolerated: serving beats the soft cap
            victim = min(victims, key=lambda s: s.last_used)
            self._deactivate_locked([victim])
            self.evictions += 1
            get_telemetry().metrics.counter(
                "router_shard_evictions_total",
                "Shard deactivations forced by the memory budget",
            ).inc()

    def plan_waves(self, names: Sequence[str]) -> list[list[str]]:
        """Partition a fan-out into budget-sized waves (catalog order).

        With no budget everything rides one wave; otherwise each wave's
        summed container size stays within the budget so the whole wave
        can be resident at once (an oversized single shard gets its own
        wave and activates anyway).
        """
        if self.memory_budget_bytes is None:
            return [list(names)] if names else []
        waves: list[list[str]] = []
        wave: list[str] = []
        wave_bytes = 0
        for name in names:
            size = self.shard(name).bytes
            if wave and wave_bytes + size > self.memory_budget_bytes:
                waves.append(wave)
                wave, wave_bytes = [], 0
            wave.append(name)
            wave_bytes += size
        if wave:
            waves.append(wave)
        return waves

    # -- lifecycle ---------------------------------------------------------

    def _deactivate_locked(self, shards: Sequence[Shard]) -> None:
        """Deactivate ``shards``: drop them in process and in every pool
        worker.  A pool that cannot acknowledge (a dead worker) is left
        to the next dispatch, which degrades and reports it."""
        names = {s.name for s in shards if s.state == SHARD_ACTIVE}
        if not names:
            return
        paths = [s.flat_path for s in shards if s.name in names]
        for shard in shards:
            shard.deactivate()
        if self._shelf is not None:
            self._shelf.release(sorted(names))
        if self.pool is not None:
            try:
                self.pool.release(paths)
            except RuntimeError:
                pass

    def deactivate_all(self) -> None:
        with self._lock:
            self._deactivate_locked(list(self._shards.values()))

    def restart_pool(self) -> None:
        """Recover a degraded pool: respawn its workers and clear the
        active shards' degraded flags.  The in-process rung's indexes
        are dropped first, so the new workers inherit no mapping."""
        with self._lock:
            if self.pool is not None:
                self._shelf = None
                for shard in self._shards.values():
                    shard.index = None
                self.pool.restart()
            for shard in self._shards.values():
                if shard.state == SHARD_ACTIVE:
                    shard.degraded = False
                    shard.last_error = ""

    # -- serving -----------------------------------------------------------

    def map_wave(self, shards: Sequence[Shard], reads: list[str]) -> dict[str, MappedBatch]:
        """Map ``reads`` on the acquired ``shards`` as one job: on the
        catalog pool, or in process when there is none or its dispatch
        fails (the wave's shards are then marked degraded with the
        reason, and the answer is still correct)."""
        names = tuple(s.name for s in shards)
        for shard in shards:
            shard.batches += 1
            shard.reads += len(reads)
        if self.pool is not None:
            try:
                batches = self.pool.map_reads(
                    reads, locate=True, containers=[s.flat_path for s in shards]
                )
                return dict(zip(names, batches))
            except Exception as exc:  # noqa: BLE001 - degrade, don't fail
                for shard in shards:
                    shard.degraded = True
                    shard.last_error = f"{type(exc).__name__}: {exc}"
                get_telemetry().metrics.counter(
                    "router_shard_degraded_total",
                    "Shard pool dispatches recovered via the in-process rung",
                ).inc(len(shards))
        with self._lock:
            if self._shelf is None:
                from .pool import IndexShelf

                self._shelf = IndexShelf(lambda name: self.shard(name).resident_index())
            shelf = self._shelf
        return dict(zip(names, shelf.map_reads(names, reads)))

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self.pool is not None:
                self.pool.close()
                self.pool = None
            self.deactivate_all()
            for shard in self._shards.values():
                if shard.owns_file:
                    try:
                        os.unlink(shard.flat_path)
                    except OSError:
                        pass
            if self._spool is not None:
                self._spool.cleanup()
                self._spool = None

    def __enter__(self) -> "ShardCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spool_dir(self) -> str:
        if self._spool is None:
            self._spool = tempfile.TemporaryDirectory(prefix="shard_catalog_")
        return self._spool.name

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            active = self.active_bytes()
            pool = self.pool.health() if self.pool is not None else None
            return {
                "shards": [s.health(pool, self.pool_workers) for s in self._shards.values()],
                "pool": pool,
                "n_shards": len(self._shards),
                "active_shards": len(self.active_names()),
                "memory_budget_bytes": self.memory_budget_bytes,
                "active_bytes": active,
                "over_budget": (
                    self.memory_budget_bytes is not None
                    and active > self.memory_budget_bytes
                ),
                "evictions": self.evictions,
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        return (
            f"ShardCatalog(shards={len(self._shards)}, "
            f"active={len(self.active_names())}, "
            f"budget={self.memory_budget_bytes})"
        )


def _resolve(base: Path, p: str) -> Path:
    q = Path(p)
    return q if q.is_absolute() else base / q


class ShardRouter:
    """Scatter-gather dispatcher over a :class:`ShardCatalog`.

    ``map_reads`` maps one read batch on the requested shards (all of
    them by default; a name given twice is mapped once) and merges the
    per-shard strand hits into one :class:`MultiRefMapping` per read.
    Merged hits sort by ``(catalog ordinal, position, strand)`` — the
    exact order a monolithic :class:`MultiReferenceIndex` over the same
    sequences produces, which the ``router`` differential self-check
    verifies bit-for-bit.

    Each budget wave is one mapping job (:meth:`ShardCatalog.map_wave`);
    waves run sequentially so the catalog never exceeds its memory
    budget mid-fan-out.
    """

    def __init__(self, catalog: ShardCatalog):
        self.catalog = catalog
        self.batches = 0
        self.reads_total = 0

    def map_reads(
        self, reads: Sequence[str], shards: Sequence[str] | None = None
    ) -> list[MultiRefMapping]:
        reads = list(reads)
        if shards is None:
            names = list(self.catalog.names)
        else:
            names = self.catalog.selection(shards)  # unknown names fail early
        if not names:
            raise UnknownShardError("no shards selected")
        self.batches += 1
        self.reads_total += len(reads)
        if not reads:
            return []
        tel = get_telemetry()
        t0 = time.perf_counter()
        per_shard: dict[str, MappedBatch] = {}
        for wave in self.catalog.plan_waves(names):
            acquired = self.catalog.acquire(wave)
            try:
                per_shard.update(self.catalog.map_wave(acquired, reads))
            finally:
                self.catalog.release(acquired)
        merged = self._merge(reads, names, per_shard)
        tel.metrics.histogram(
            "router_fanout_seconds", "Wall seconds per scatter-gather batch"
        ).observe(time.perf_counter() - t0)
        tel.metrics.counter(
            "router_batches_total", "Read batches through the shard router"
        ).inc()
        return merged

    def _merge(
        self, reads: list[str], names: list[str], per_shard: dict[str, MappedBatch]
    ) -> list[MultiRefMapping]:
        ordinals = self.catalog.ordinals
        # Positions straight from each shard's columns: read i's strands
        # are intervals 2i (+) and 2i + 1 (-).
        located = [
            (name, batch.positions.tolist(), batch.offsets.tolist())
            for name, batch in ((n, per_shard[n]) for n in names)
            if batch.positions is not None and batch.offsets is not None
        ]
        merged: list[MultiRefMapping] = []
        for i in range(len(reads)):
            hits = [
                ReferenceHit(name=name, position=p, strand=strand)
                for name, pos, off in located
                for s, strand in ((0, "+"), (1, "-"))
                for p in pos[off[2 * i + s] : off[2 * i + s + 1]]
            ]
            hits.sort(key=lambda h: (ordinals[h.name], h.position, h.strand))
            merged.append(MultiRefMapping(read_id=i, hits=tuple(hits)))
        return merged

    def stats(self) -> dict:
        doc = self.catalog.stats()
        doc["batches_total"] = self.batches
        doc["reads_total"] = self.reads_total
        doc["degraded"] = any(s["degraded"] for s in doc["shards"])
        return doc


class RouterMappingService(MappingService):
    """A served shard catalog behind the one admission path.

    The web tier's ``POST /map?catalog=...`` path: concurrent
    whole-catalog requests coalesce into shared fan-out batches through
    :meth:`ShardRouter.map_reads`; a shard subset is admitted the same
    way but rides in a batch of its own (different subsets cannot share
    a fan-out).  Demultiplexed results are bit-identical to an
    independent ``map_reads`` of the same reads.
    """

    def __init__(self, router: ShardRouter, *, config=None):
        self.router = router
        self.coalescer = RequestCoalescer(
            router.map_reads, config=config, name="router-service"
        )

    def _dispatch_for(self, shards):
        if shards is None:
            return None
        # Unknown names fail before admission.
        names = self.router.catalog.selection(shards)
        if not names:
            raise UnknownShardError("no shards selected")
        return functools.partial(self.router.map_reads, shards=names)

    def stats(self) -> dict:
        doc = self.router.stats()
        doc["coalescer"] = self.coalescer.stats()
        return doc

    def _close_backend(self) -> None:
        self.router.catalog.close()
