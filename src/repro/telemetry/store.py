"""Longitudinal trajectory store: one normalized row per metric point.

Every artifact the repo emits — ``BENCH_<rev>.json`` snapshots, the CLI
``--format json`` envelopes (``verify`` / ``matrix`` / ``sample`` /
``workload``) — is a point-in-time payload.  :class:`TrajectoryStore`
is where they connect: the ingesters (:mod:`repro.telemetry.ingest`)
normalize each payload into :class:`TrajectoryPoint` rows keyed by

    (rev, schema_version, command, series, label, backend, spec_digest)

and the store upserts them into one SQLite database (WAL mode + busy
timeout, so concurrent ingesters do not collide).  The primary key *is*
the idempotency contract: re-ingesting the same artifact replaces its
own rows instead of duplicating them, so the dashboard can be rebuilt
from committed artifacts any number of times.

Revision ordering is the store's one non-trivial query: git short revs
do not sort, so :meth:`TrajectoryStore.revisions` asks ``git rev-list``
for commit order and falls back to first-ingest order for revs the
repository does not know (a dirty working tree's ``local``, payloads
ingested outside a checkout).
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.exec.cache import default_cache_dir

# Bump when the points table layout changes incompatibly.
TELEMETRY_SCHEMA_VERSION = 1

# The default database file name, placed inside the cache directory
# (next to the result store) unless $REPRO_TELEMETRY_DB overrides it.
DB_FILENAME = "telemetry.sqlite"
TELEMETRY_DB_ENV = "REPRO_TELEMETRY_DB"

BUSY_TIMEOUT_MS = 10_000

_SCHEMA_SQL = (
    """
    CREATE TABLE IF NOT EXISTS points (
        rev            TEXT    NOT NULL,
        schema_version INTEGER NOT NULL,
        command        TEXT    NOT NULL,
        series         TEXT    NOT NULL,
        label          TEXT    NOT NULL,
        backend        TEXT    NOT NULL DEFAULT '',
        spec_digest    TEXT    NOT NULL DEFAULT '',
        value          REAL,
        text_value     TEXT,
        unit           TEXT    NOT NULL DEFAULT '',
        meta           TEXT    NOT NULL DEFAULT '{}',
        updated_at     REAL    NOT NULL,
        PRIMARY KEY (rev, schema_version, command, series, label,
                     backend, spec_digest)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS revs (
        rev       TEXT PRIMARY KEY,
        first_seq INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS sources (
        digest      TEXT PRIMARY KEY,
        kind        TEXT NOT NULL,
        rev         TEXT,
        source      TEXT NOT NULL,
        points      INTEGER NOT NULL,
        ingested_at REAL NOT NULL
    )
    """,
)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One normalized metric observation at one revision.

    ``series`` names the metric (``inst_per_sec``, ``pass_rate``,
    ``verdict``, ...), ``label`` the entity within it (a bench row, an
    ``attack/policy`` cell, a fuzz profile).  ``value`` carries numeric
    metrics; categorical outcomes ride ``text`` (with ``value`` as a
    sortable shadow, e.g. closed=1.0).  ``meta`` holds payload extras
    (CI bounds, job keys) as a JSON-able dict.
    """

    rev: str
    schema_version: int
    command: str
    series: str
    label: str
    backend: str = ""
    spec_digest: str = ""
    value: Optional[float] = None
    text: Optional[str] = None
    unit: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> tuple:
        return (self.rev, self.schema_version, self.command, self.series,
                self.label, self.backend, self.spec_digest)


def default_telemetry_db() -> Path:
    """``$REPRO_TELEMETRY_DB`` when set, else ``<cache-dir>/telemetry.sqlite``."""
    import os

    override = os.environ.get(TELEMETRY_DB_ENV)
    if override:
        return Path(override)
    return default_cache_dir() / DB_FILENAME


def git_rev_ranks(revs: Sequence[str]) -> Optional[Dict[str, int]]:
    """Commit-order rank for each (short) rev, or None outside git.

    Ranks follow ``git rev-list --reverse`` (oldest first); revs the
    repository does not know are absent from the mapping.
    """
    try:
        out = subprocess.run(
            ["git", "rev-list", "--reverse", "--topo-order", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return None
    if out.returncode != 0:
        return None
    history = out.stdout.split()
    ranks: Dict[str, int] = {}
    for rev in revs:
        for index, full in enumerate(history):
            if full.startswith(rev):
                ranks[rev] = index
                break
    return ranks


def enable_wal(conn: sqlite3.Connection, busy_timeout_ms: int) -> None:
    """Switch an ``sqlite3`` connection to WAL journaling.

    ``PRAGMA journal_mode=WAL`` may answer "database is locked" at once,
    without waiting out the busy timeout, while other processes open
    the same database.  Retry it until ``busy_timeout_ms`` runs out.
    """
    deadline = time.monotonic() + busy_timeout_ms / 1000.0
    delay = 0.001
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(delay)
        delay = min(delay * 2, 0.05)


class TrajectoryStore:
    """SQLite-backed store of :class:`TrajectoryPoint` rows."""

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        base = Path(path) if path is not None else default_telemetry_db()
        # A directory argument gets the default file name inside it.
        self.path = base / DB_FILENAME if base.is_dir() else base
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection management --------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.path),
                                   timeout=BUSY_TIMEOUT_MS / 1000.0,
                                   check_same_thread=False)
            enable_wal(conn, BUSY_TIMEOUT_MS)
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA synchronous=NORMAL")
            for statement in _SCHEMA_SQL:
                conn.execute(statement)
            conn.commit()
            self._conn = conn
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "TrajectoryStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- writes ------------------------------------------------------------

    def upsert(self, points: Iterable[TrajectoryPoint]) -> int:
        """Insert-or-replace ``points``; returns how many were written.

        The primary key covers the full point identity, so re-ingesting
        an artifact replaces its own rows — never duplicates them.
        """
        rows = list(points)
        if not rows:
            return 0
        now = time.time()
        with self._lock:
            conn = self._connect()
            for point in rows:
                conn.execute(
                    "INSERT INTO points (rev, schema_version, command, "
                    "  series, label, backend, spec_digest, value, "
                    "  text_value, unit, meta, updated_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(rev, schema_version, command, series, "
                    "  label, backend, spec_digest) DO UPDATE SET "
                    "  value = excluded.value, "
                    "  text_value = excluded.text_value, "
                    "  unit = excluded.unit, "
                    "  meta = excluded.meta, "
                    "  updated_at = excluded.updated_at",
                    (point.rev, point.schema_version, point.command,
                     point.series, point.label, point.backend,
                     point.spec_digest, point.value, point.text,
                     point.unit, json.dumps(point.meta, sort_keys=True),
                     now))
                conn.execute(
                    "INSERT OR IGNORE INTO revs (rev, first_seq) VALUES "
                    "(?, (SELECT COALESCE(MAX(first_seq), 0) + 1 "
                    "     FROM revs))", (point.rev,))
            conn.commit()
        return len(rows)

    def record_source(self, digest: str, kind: str, rev: Optional[str],
                      source: str, points: int) -> bool:
        """Remember one ingested artifact; True when first seen."""
        with self._lock:
            conn = self._connect()
            known = conn.execute(
                "SELECT 1 FROM sources WHERE digest = ?",
                (digest,)).fetchone() is not None
            conn.execute(
                "INSERT INTO sources (digest, kind, rev, source, points, "
                "  ingested_at) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(digest) DO UPDATE SET "
                "  kind = excluded.kind, rev = excluded.rev, "
                "  source = excluded.source, points = excluded.points, "
                "  ingested_at = excluded.ingested_at",
                (digest, kind, rev, source, points, time.time()))
            conn.commit()
        return not known

    # -- reads -------------------------------------------------------------

    def points(self, command: Optional[str] = None,
               series: Optional[str] = None,
               rev: Optional[str] = None) -> List[TrajectoryPoint]:
        """Every stored point matching the given filters."""
        clauses, args = [], []
        for column, wanted in (("command", command), ("series", series),
                               ("rev", rev)):
            if wanted is not None:
                clauses.append(f"{column} = ?")
                args.append(wanted)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._connect().execute(
                "SELECT rev, schema_version, command, series, label, "
                "backend, spec_digest, value, text_value, unit, meta "
                f"FROM points{where} ORDER BY command, series, label, "
                "backend", args).fetchall()
        return [TrajectoryPoint(
            rev=row[0], schema_version=row[1], command=row[2],
            series=row[3], label=row[4], backend=row[5],
            spec_digest=row[6], value=row[7], text=row[8], unit=row[9],
            meta=json.loads(row[10])) for row in rows]

    def revisions(self) -> List[str]:
        """Every ingested rev, oldest first.

        Revs in the repository's history sort by commit order; unknown
        revs (dirty trees, foreign payloads) keep first-ingest order and
        sort after every known rev — the trajectory's moving tip.
        """
        with self._lock:
            rows = self._connect().execute(
                "SELECT rev, first_seq FROM revs").fetchall()
        revs = [row[0] for row in rows]
        seqs = {row[0]: row[1] for row in rows}
        ranks = git_rev_ranks(revs) or {}
        known = len(ranks)
        return sorted(revs, key=lambda rev: (
            (0, ranks[rev]) if rev in ranks else (1, known + seqs[rev])))

    def summary(self) -> Dict[str, Any]:
        """The corpus shape ``telemetry show`` renders."""
        with self._lock:
            conn = self._connect()
            per_rev = conn.execute(
                "SELECT rev, command, COUNT(*) FROM points "
                "GROUP BY rev, command").fetchall()
            total = conn.execute("SELECT COUNT(*) FROM points") \
                .fetchone()[0]
            sources = conn.execute("SELECT COUNT(*) FROM sources") \
                .fetchone()[0]
        commands: Dict[str, Dict[str, int]] = {}
        for rev, command, count in per_rev:
            commands.setdefault(rev, {})[command] = count
        return {
            "db": str(self.path),
            "telemetry_schema": TELEMETRY_SCHEMA_VERSION,
            "points": int(total),
            "sources": int(sources),
            "revisions": [{"rev": rev,
                           "points": sum(commands.get(rev, {}).values()),
                           "commands": commands.get(rev, {})}
                          for rev in self.revisions()],
        }

    def __len__(self) -> int:
        with self._lock:
            row = self._connect().execute(
                "SELECT COUNT(*) FROM points").fetchone()
        return int(row[0])
