"""Results store: every trial as JSON, plus a SQLite trajectory DB.

Layout under the store root::

    trials/<trial_id>.json    one document per trial (source of truth)
    trajectory.sqlite         queryable projection of the same rows

Both carry the full provenance key: git hash, config hash, seed, host
fingerprint.  The SQLite side exists for queries (gate, report,
trajectory series); the JSON side survives tooling changes and diffs
cleanly in review.  ``rebuild_db`` reconstructs the database from the
JSON documents, so the binary file never needs to be committed.

Schema migrations are forward-only ``schema_version`` bumps; an empty or
missing database migrates to the current version on open.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sqlite3
import subprocess
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_version (version INTEGER NOT NULL);
CREATE TABLE IF NOT EXISTS trials (
    id            TEXT PRIMARY KEY,
    created_utc   REAL NOT NULL,
    experiment    TEXT NOT NULL,
    workload      TEXT NOT NULL,
    config_hash   TEXT NOT NULL,
    git_hash      TEXT NOT NULL,
    seed          INTEGER NOT NULL,
    host          TEXT NOT NULL,
    rep           INTEGER NOT NULL,
    phase         TEXT NOT NULL,
    wall_seconds  REAL NOT NULL,
    is_baseline   INTEGER NOT NULL DEFAULT 0,
    metrics_json  TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_trials_workload
    ON trials (workload, phase, is_baseline);
CREATE INDEX IF NOT EXISTS idx_trials_git ON trials (git_hash);
"""


@dataclass
class TrialRecord:
    """One executed trial, fully provenance-keyed."""

    experiment: str
    workload: str
    config_hash: str
    git_hash: str
    seed: int
    host: str
    rep: int
    phase: str  # "warmup" | "steady"
    wall_seconds: float
    created_utc: float
    is_baseline: bool = False
    metrics: dict = field(default_factory=dict)
    id: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            self.id = uuid.uuid4().hex[:16]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrialRecord":
        # Documents from older stores carry a ``synthetic`` flag that is
        # no longer a field; drop it so they still load.
        d = {k: v for k, v in d.items() if k != "synthetic"}
        return cls(**d)


def git_revision(repo_dir: str | Path | None = None) -> str:
    """Current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> str:
    """Short stable id of the measuring machine.

    Perf numbers are only comparable within one fingerprint; the gate
    never compares samples across fingerprints.
    """
    raw = "|".join(
        (
            platform.node(),
            platform.machine(),
            platform.python_implementation(),
            platform.python_version(),
            str(os.cpu_count() or 0),
        )
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:12]


class ResultsStore:
    """Append-only trial store rooted at a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.trials_dir = self.root / "trials"
        self.trials_dir.mkdir(parents=True, exist_ok=True)
        self.db_path = self.root / "trajectory.sqlite"
        self._conn = sqlite3.connect(self.db_path)
        self._migrate()

    # -- lifecycle ---------------------------------------------------------

    def _migrate(self) -> None:
        cur = self._conn.cursor()
        cur.executescript(_SCHEMA)
        row = cur.execute("SELECT version FROM schema_version").fetchone()
        if row is None:
            cur.execute("INSERT INTO schema_version VALUES (?)", (SCHEMA_VERSION,))
        elif row[0] > SCHEMA_VERSION:
            raise RuntimeError(
                f"trajectory DB schema v{row[0]} is newer than this code "
                f"(v{SCHEMA_VERSION}); refusing to write"
            )
        else:
            # Forward-only migrations slot in here as versions grow.
            cur.execute("UPDATE schema_version SET version = ?", (SCHEMA_VERSION,))
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        row = self._conn.execute("SELECT version FROM schema_version").fetchone()
        return int(row[0])

    # -- writes ------------------------------------------------------------

    def insert(self, record: TrialRecord, write_json: bool = True) -> None:
        if write_json:
            path = self.trials_dir / f"{record.id}.json"
            path.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n")
        self._conn.execute(
            "INSERT OR REPLACE INTO trials "
            "(id, created_utc, experiment, workload, config_hash, git_hash, "
            " seed, host, rep, phase, wall_seconds, is_baseline, metrics_json) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.id, record.created_utc, record.experiment,
                record.workload, record.config_hash, record.git_hash,
                record.seed, record.host, record.rep, record.phase,
                record.wall_seconds, int(record.is_baseline),
                json.dumps(record.metrics, sort_keys=True),
            ),
        )
        self._conn.commit()

    def insert_many(self, records: list[TrialRecord]) -> None:
        for r in records:
            self.insert(r)

    def import_records(self, path: str | Path) -> int:
        """Load trial records from a JSON export (``export_records``)."""
        doc = json.loads(Path(path).read_text())
        records = [TrialRecord.from_dict(d) for d in doc["trials"]]
        self.insert_many(records)
        return len(records)

    def export_records(self, path: str | Path, **where) -> int:
        records = self.query(**where)
        doc = {"trials": [r.to_dict() for r in records]}
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return len(records)

    def rebuild_db(self) -> int:
        """Reconstruct the SQLite projection from the JSON documents."""
        self._conn.execute("DELETE FROM trials")
        self._conn.commit()
        n = 0
        for p in sorted(self.trials_dir.glob("*.json")):
            self.insert(TrialRecord.from_dict(json.loads(p.read_text())),
                        write_json=False)
            n += 1
        return n

    # -- queries -----------------------------------------------------------

    _COLUMNS = (
        "id", "created_utc", "experiment", "workload", "config_hash",
        "git_hash", "seed", "host", "rep", "phase", "wall_seconds",
        "is_baseline", "metrics_json",
    )

    def query(
        self,
        workload: str | None = None,
        phase: str | None = None,
        git_hash: str | None = None,
        host: str | None = None,
        is_baseline: bool | None = None,
        experiment: str | None = None,
        config_hash: str | None = None,
    ) -> list[TrialRecord]:
        clauses, args = [], []
        for col, val in (
            ("workload", workload), ("phase", phase), ("git_hash", git_hash),
            ("host", host), ("experiment", experiment), ("config_hash", config_hash),
        ):
            if val is not None:
                clauses.append(f"{col} = ?")
                args.append(val)
        if is_baseline is not None:
            clauses.append("is_baseline = ?")
            args.append(int(is_baseline))
        sql = f"SELECT {', '.join(self._COLUMNS)} FROM trials"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_utc, rep"
        out = []
        for row in self._conn.execute(sql, args):
            d = dict(zip(self._COLUMNS, row))
            d["metrics"] = json.loads(d.pop("metrics_json"))
            d["is_baseline"] = bool(d["is_baseline"])
            out.append(TrialRecord.from_dict(d))
        return out

    def samples(self, workload: str, *, metric: str = "wall_seconds", **where) -> list[float]:
        """Steady-phase metric samples for one workload."""
        records = self.query(workload=workload, phase="steady", **where)
        if metric == "wall_seconds":
            return [r.wall_seconds for r in records]
        return [float(r.metrics[metric]) for r in records if metric in r.metrics]

    def workloads(self) -> list[str]:
        return [r[0] for r in self._conn.execute(
            "SELECT DISTINCT workload FROM trials ORDER BY workload")]

    def git_hashes(self) -> list[str]:
        """Distinct git hashes in first-seen order (trajectory x-axis)."""
        return [r[0] for r in self._conn.execute(
            "SELECT git_hash FROM trials GROUP BY git_hash "
            "ORDER BY MIN(created_utc)")]

    def latest_git_hash(self) -> str | None:
        row = self._conn.execute(
            "SELECT git_hash FROM trials WHERE is_baseline = 0 "
            "ORDER BY created_utc DESC LIMIT 1").fetchone()
        return row[0] if row else None

    def count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0])
