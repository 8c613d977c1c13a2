"""Declarative experiment configs: what to measure, not how.

An *experiment* is a point in the (workload × backend × scale ×
repetitions) grid plus a seed — a plain frozen dataclass that can be
written as JSON, hashed stably, and replayed bit-for-bit.  The runner
(:mod:`repro.bench.platform.runner`) is the only thing that knows how to
execute one; everything else (store, gate, report) keys off the
``config_hash``.

A *suite* is a named list of experiments.  ``smoke`` is the CI matrix:
small-scale versions of every named hot path, cheap enough to run twice
per job (baseline + candidate) for a same-host gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

#: Workload input scales.  ``tiny`` exists for the platform's own tests;
#: ``small`` is the CI matrix; ``medium`` matches the legacy bench
#: scripts' substrate sizes.
SCALES = ("tiny", "small", "medium")


class ConfigError(ValueError):
    """Malformed experiment config or suite file."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative experiment: a workload at a scale, repeated.

    Attributes
    ----------
    name:
        Human-readable experiment id (unique within a suite).
    workload:
        Registered workload name (see
        :mod:`repro.bench.platform.workloads`).
    backend:
        Rank-structure backend the workload should build on
        (``rrr``/``occ``), where applicable.
    scale:
        Input-size tier (one of :data:`SCALES`).
    repetitions:
        Steady-state trials persisted per run.
    warmup:
        Leading trials executed and persisted with ``phase="warmup"``
        but excluded from gate/report statistics (cache fill, JIT-less
        Python still benefits: allocator and page-cache warmth).
    seed:
        Base RNG seed; every input derives deterministically from it.
    pool_workers:
        When > 0 the dispatcher routes the workload through a
        shared-memory :class:`~repro.serving.pool.MapperPool` with this
        many workers.
    params:
        Free-form workload parameters (sorted-tuple form so the config
        stays hashable and the hash canonical).
    """

    name: str
    workload: str
    backend: str = "rrr"
    scale: str = "small"
    repetitions: int = 5
    warmup: int = 1
    seed: int = 7
    pool_workers: int = 0
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ConfigError(f"unknown scale {self.scale!r}; have {SCALES}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def with_params(self, **params: object) -> "ExperimentConfig":
        merged = {**self.param_dict, **params}
        return replace(self, params=tuple(sorted(merged.items())))

    # -- canonical form ----------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["params"] = self.param_dict
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown experiment field(s) {sorted(unknown)}")
        if "name" not in d or "workload" not in d:
            raise ConfigError("experiment needs at least 'name' and 'workload'")
        params = d.pop("params", {})
        if isinstance(params, dict):
            params = tuple(sorted(params.items()))
        return cls(params=tuple(params), **d)

    def canonical_json(self) -> str:
        """Stable serialization: sorted keys, no whitespace variance."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        """12-hex-digit digest of the canonical form.

        Two configs hash equal iff they describe the same experiment;
        insertion order of ``params`` never matters.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def load_suite(path: str | Path) -> list[ExperimentConfig]:
    """Load a suite file: ``{"experiments": [{...}, ...]}`` JSON."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"suite file {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "experiments" not in doc:
        raise ConfigError(f"suite file {path}: expected an 'experiments' list")
    configs = [ExperimentConfig.from_dict(e) for e in doc["experiments"]]
    names = [c.name for c in configs]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ConfigError(f"duplicate experiment names {sorted(dupes)}")
    return configs


def save_suite(configs: list[ExperimentConfig], path: str | Path) -> None:
    doc = {"experiments": [c.to_dict() for c in configs]}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _hot_path_suite(scale: str, repetitions: int, warmup: int) -> list[ExperimentConfig]:
    base = dict(scale=scale, repetitions=repetitions, warmup=warmup)
    return [
        ExperimentConfig(name=f"count_only_mapping_{scale}",
                         workload="count_only_mapping", **base),
        ExperimentConfig(name=f"flat_open_{scale}", workload="flat_open", **base),
        ExperimentConfig(name=f"pool_attach_{scale}", workload="pool_attach", **base),
        ExperimentConfig(name=f"occ2_fused_{scale}", workload="occ2_fused", **base),
        ExperimentConfig(name=f"pool_mapping_{scale}", workload="pool_mapping",
                         pool_workers=2, **base),
        # Coalescing ablation pair: same requests, merged vs independent.
        ExperimentConfig(name=f"coalesced_mapping_{scale}",
                         workload="coalesced_mapping", **base),
        ExperimentConfig(name=f"uncoalesced_mapping_{scale}",
                         workload="uncoalesced_mapping", **base),
        # Sharded fan-out through the router tier (all shards resident).
        ExperimentConfig(name=f"sharded_mapping_{scale}",
                         workload="sharded_mapping", **base),
        # Out-of-core build: whole cold builds per trial, so cap the reps
        # regardless of what the micro paths use.
        ExperimentConfig(name=f"blockwise_build_{scale}",
                         workload="blockwise_build",
                         **{**base, "repetitions": min(repetitions, 5),
                            "warmup": min(warmup, 1)}),
    ]


#: Built-in suites by name (``repro bench run --suite <name>``).
BUILTIN_SUITES: dict[str, list[ExperimentConfig]] = {
    # CI matrix: every named hot path at small scale.  Ten reps because
    # the micro paths are sub-millisecond: the rank test needs enough
    # samples that one noisy rep cannot tip a verdict.
    "smoke": _hot_path_suite("small", repetitions=10, warmup=2),
    # Local regression hunt: same paths, more reps at the bench scale.
    "hotpaths": _hot_path_suite("medium", repetitions=7, warmup=2),
    # Platform self-test matrix: minimal inputs, no pool.
    "tiny": [
        c for c in _hot_path_suite("tiny", repetitions=3, warmup=1)
        if c.pool_workers == 0
    ],
    # Nightly out-of-core build at the bench scale: each rep is a whole
    # cold blockwise build, so a few reps dominate the job's wall clock.
    # Measures the build at a scale the smoke suite is too small to
    # exercise meaningfully.
    "build": [
        ExperimentConfig(name="blockwise_build_nightly",
                         workload="blockwise_build", scale="medium",
                         repetitions=3, warmup=1),
    ],
}


def resolve_suite(spec: str) -> list[ExperimentConfig]:
    """A built-in suite name, or a path to a suite JSON file."""
    if spec in BUILTIN_SUITES:
        return list(BUILTIN_SUITES[spec])
    path = Path(spec)
    if path.exists():
        return load_suite(path)
    raise ConfigError(
        f"unknown suite {spec!r}: not a built-in ({sorted(BUILTIN_SUITES)}) "
        f"and no such file"
    )
