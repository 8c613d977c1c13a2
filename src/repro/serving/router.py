"""Sharded multi-genome serving: catalog, LRU activation, scatter-gather.

The serving spine so far assumes one index = one pool.  Real deployments
serve a *catalog* of references — many genomes, not all of which fit in
memory at once.  This module adds the missing tier:

* :class:`ShardCatalog` registers N named references, each backed by its
  own flat container on disk.  Activation attaches the container
  zero-copy (mmap) and optionally spins up a per-shard
  :class:`~repro.serving.pool.MapperPool`; deactivation drops both.
  Activations are LRU-managed under a configurable memory budget, so the
  catalog may be far larger than RAM — cold shards cost only disk.
* :class:`ShardRouter` fans a read batch across the requested shards
  (scatter), maps on each shard independently, and merges the per-shard
  strand hits into :class:`~repro.index.multiref.MultiRefMapping` rows
  with stable global ordering (gather): hits sort by catalog ordinal,
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
.stats` and lands on the web tier's ``/healthz``.
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
    mmaps the container (O(1) in index size) and, with
    ``pool_workers > 0``, starts a :class:`~repro.serving.pool.MapperPool`
    whose workers attach to the same file zero-copy.  An in-process
    mapper over the same mmap is always kept as the fallback rung, so a
    degraded pool serves correct results while health reports the fault.
    """

    def __init__(
        self,
        name: str,
        flat_path: str | Path,
        *,
        pool_workers: int = 0,
        start_method: str | None = None,
        owns_file: bool = False,
    ):
        self.name = str(name)
        self.flat_path = str(flat_path)
        self.bytes = os.path.getsize(self.flat_path)
        self.pool_workers = int(pool_workers)
        self.start_method = start_method
        self.owns_file = bool(owns_file)
        self.state = SHARD_INACTIVE
        self.pool = None
        self._mapper = None
        self._index = None
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
        from ..mapper.mapper import Mapper

        self._index = load_index_flat(self.flat_path)
        self._mapper = Mapper(self._index, locate=True)
        if self.pool_workers > 0:
            from .pool import MapperPool

            self.pool = MapperPool(
                flat_path=self.flat_path,
                workers=self.pool_workers,
                start_method=self.start_method,
            )
        self.state = SHARD_ACTIVE
        self.activations += 1

    def deactivate(self) -> None:
        if self.state == SHARD_INACTIVE:
            return
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        self._mapper = None
        self._index = None
        self.state = SHARD_INACTIVE

    def restart_pool(self) -> None:
        """Recover a degraded shard: respawn its pool workers."""
        if self.pool is not None:
            self.pool.restart()
        self.degraded = False
        self.last_error = ""

    # -- serving -----------------------------------------------------------

    def map_reads(self, reads: list[str]):
        """Map a batch on this shard; falls back to the in-process mapper
        (marking the shard degraded) when the pool dispatch fails."""
        if self.state != SHARD_ACTIVE:
            raise RouterError(f"shard {self.name!r} is not active")
        self.batches += 1
        self.reads += len(reads)
        if self.pool is not None:
            try:
                return self.pool.map_reads(reads, locate=True)
            except Exception as exc:  # noqa: BLE001 - degrade, don't fail
                self.degraded = True
                self.last_error = f"{type(exc).__name__}: {exc}"
                get_telemetry().metrics.counter(
                    "router_shard_degraded_total",
                    "Shard pool dispatches recovered via the in-process rung",
                ).inc()
        return self._mapper.map_reads(reads)

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        doc = {
            "name": self.name,
            "state": self.state,
            "bytes": self.bytes,
            "pool_workers": self.pool_workers,
            "degraded": self.degraded,
            "last_error": self.last_error,
            "activations": self.activations,
            "batches": self.batches,
            "reads": self.reads,
        }
        if self.pool is not None:
            pool = self.pool.health()
            doc["workers_alive"] = pool["workers_alive"]
            doc["queue_depth"] = pool["queue_depth"]
            doc["generation"] = pool["generation"]
            if pool["workers_alive"] < pool["workers"]:
                doc["degraded"] = True
        return doc

    def __repr__(self) -> str:
        return (
            f"Shard(name={self.name!r}, state={self.state!r}, "
            f"bytes={self.bytes}, pool_workers={self.pool_workers})"
        )


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

    # -- registration ------------------------------------------------------

    def register(self, name: str, flat_path: str | Path, *, owns_file: bool = False) -> Shard:
        """Register an on-disk flat container as shard ``name``."""
        with self._lock:
            if name in self._shards:
                raise ValueError(f"duplicate shard name {name!r}")
            shard = Shard(
                name,
                flat_path,
                pool_workers=self.pool_workers,
                start_method=self.start_method,
                owns_file=owns_file,
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
            victim.deactivate()
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

    def deactivate_all(self) -> None:
        with self._lock:
            for shard in self._shards.values():
                shard.deactivate()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
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
            return {
                "shards": [s.health() for s in self._shards.values()],
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

    ``map_reads`` fans one read batch across the requested shards (all
    of them by default), maps on each independently, and merges the
    per-shard strand hits into one :class:`MultiRefMapping` per read.
    Merged hits sort by ``(catalog ordinal, position, strand)`` — the
    exact order a monolithic :class:`MultiReferenceIndex` over the same
    sequences produces, which the ``router`` differential self-check
    verifies bit-for-bit.

    Shards inside one budget wave dispatch concurrently (each shard's
    pool has its own queues, so cross-shard concurrency is safe); waves
    run sequentially so the catalog never exceeds its memory budget
    mid-fan-out.
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
            names = list(shards)
            for n in names:
                self.catalog.shard(n)  # raises UnknownShardError early
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
                if len(acquired) == 1:
                    per_shard[acquired[0].name] = acquired[0].map_reads(reads)
                else:
                    self._fan_out(acquired, reads, per_shard)
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

    def _fan_out(self, shards: list[Shard], reads: list[str], out: dict) -> None:
        errors: dict[str, BaseException] = {}

        def _run(shard: Shard) -> None:
            try:
                out[shard.name] = shard.map_reads(reads)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors[shard.name] = exc

        threads = [
            threading.Thread(target=_run, args=(s,), daemon=True) for s in shards
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            name, exc = next(iter(errors.items()))
            raise RouterError(f"shard {name!r} failed: {exc}") from exc

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
        names = list(shards)
        if not names:
            raise UnknownShardError("no shards selected")
        for n in names:
            self.router.catalog.shard(n)  # unknown names fail before admission
        return functools.partial(self.router.map_reads, shards=names)

    def stats(self) -> dict:
        doc = self.router.stats()
        doc["coalescer"] = self.coalescer.stats()
        return doc

    def _close_backend(self) -> None:
        self.router.catalog.close()
