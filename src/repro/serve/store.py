"""Shared, concurrency-safe SQLite result store.

:class:`SQLiteResultStore` implements the same interface as the
directory :class:`~repro.exec.cache.ResultCache` — ``get`` / ``put`` /
``clear`` / ``__len__`` / ``describe`` plus the ``hits`` / ``misses`` /
``stores`` counters — backed by one SQLite database that many clients,
worker processes and server instances share safely:

* the database runs in WAL mode with a busy timeout, so concurrent
  readers never block a writer and racing writers serialize instead of
  erroring;
* rows are content-addressed by ``(schema_version, job_key)`` — the same
  :meth:`~repro.exec.job.SimJob.key` content hash the directory cache
  uses, namespaced by :data:`~repro.exec.job.SCHEMA_VERSION` so results
  produced by incompatible simulator versions coexist without ever being
  served across versions;
* ``put`` is a single atomic upsert (``INSERT .. ON CONFLICT DO
  UPDATE``), so two workers finishing the same job leave exactly one
  valid row and a reader can never observe a torn entry;
* ``gc`` prunes by age, entry count, byte budget, or stale schema
  version, and ``stats`` reports the corpus shape — both are what the
  ``repro cache`` CLI drives.

Storage failures degrade exactly like the directory cache: an
unwritable database warns once and the simulation result is still
returned, never discarded.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.exec.cache import default_cache_dir, enable_wal
from repro.exec.job import SCHEMA_VERSION, SimJob, SimResult

# The default database file name, placed inside the cache directory
# (next to the per-version directory-cache subdirectories).
DB_FILENAME = "results.sqlite"

# How long a writer waits on a locked database before erroring.  WAL
# mode makes real contention rare; this absorbs bursts of concurrent
# upserts from many worker processes.
BUSY_TIMEOUT_MS = 10_000

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    schema_version INTEGER NOT NULL,
    job_key        TEXT    NOT NULL,
    kind           TEXT    NOT NULL,
    target         TEXT    NOT NULL,
    policy         TEXT    NOT NULL,
    payload        TEXT    NOT NULL,
    payload_bytes  INTEGER NOT NULL,
    created_at     REAL    NOT NULL,
    last_used_at   REAL    NOT NULL,
    PRIMARY KEY (schema_version, job_key)
)
"""


def default_db_path(directory: Union[str, Path, None] = None) -> Path:
    """The database location: ``<cache-dir>/results.sqlite``.

    ``directory`` may also name the database file itself (any
    *non-directory* path with a file suffix, e.g. ``results.sqlite`` /
    ``corpus.db``). An existing directory is always treated as one —
    dots in directory names (``mktemp -d`` makes ``/tmp/tmp.XXXX``)
    must not turn the directory into a database path.
    """
    if directory is None:
        return default_cache_dir() / DB_FILENAME
    path = Path(directory)
    if path.suffix and not path.is_dir():   # names the database file
        return path
    return path / DB_FILENAME


class SQLiteResultStore:
    """A shared result store with the :class:`ResultCache` interface."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.path = default_db_path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._store_warned = False
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection management --------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """The lazily opened, schema-initialized connection."""
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.path), timeout=BUSY_TIMEOUT_MS
                                   / 1000.0, check_same_thread=False)
            enable_wal(conn, BUSY_TIMEOUT_MS)
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SCHEMA_SQL)
            conn.commit()
            self._conn = conn
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # -- the ResultCache interface ----------------------------------------

    def get(self, job: SimJob) -> Optional[SimResult]:
        """The stored result for ``job``, or None (counted as a miss)."""
        try:
            with self._lock:
                conn = self._connect()
                row = conn.execute(
                    "SELECT payload FROM results "
                    "WHERE schema_version = ? AND job_key = ?",
                    (SCHEMA_VERSION, job.key())).fetchone()
                if row is not None:
                    # Touch for age-based gc; best-effort, never fatal.
                    conn.execute(
                        "UPDATE results SET last_used_at = ? "
                        "WHERE schema_version = ? AND job_key = ?",
                        (time.time(), SCHEMA_VERSION, job.key()))
                    conn.commit()
            if row is None:
                self.misses += 1
                return None
            result = SimResult.from_dict(json.loads(row[0]))
        except (sqlite3.Error, OSError, ValueError, KeyError, TypeError,
                AttributeError):
            # Unreadable database or corrupt row: recompute.
            self.misses += 1
            return None
        result.from_cache = True
        self.hits += 1
        return result

    def put(self, job: SimJob, result: SimResult) -> None:
        """Atomically upsert ``result`` under ``job``'s content hash.

        Racing writers for the same key serialize on the row; the last
        write wins and readers only ever see a complete payload.  An
        unwritable database degrades to a one-time warning, never
        discarding a simulation that already ran.
        """
        payload = json.dumps(result.to_dict(), separators=(",", ":"))
        now = time.time()
        try:
            with self._lock:
                conn = self._connect()
                conn.execute(
                    "INSERT INTO results (schema_version, job_key, kind, "
                    "  target, policy, payload, payload_bytes, created_at, "
                    "  last_used_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(schema_version, job_key) DO UPDATE SET "
                    "  payload = excluded.payload, "
                    "  payload_bytes = excluded.payload_bytes, "
                    "  last_used_at = excluded.last_used_at",
                    (SCHEMA_VERSION, job.key(), job.kind, job.target,
                     job.policy.value, payload, len(payload), now, now))
                conn.commit()
        except (sqlite3.Error, OSError) as error:
            if not self._store_warned:
                print(f"warning: result store disabled for this run: "
                      f"cannot write {self.path} ({error})",
                      file=sys.stderr)
                self._store_warned = True
            return
        self.stores += 1

    def clear(self) -> int:
        """Delete every entry for the *current* schema version.

        Mirrors the directory cache, whose ``clear`` empties only its
        ``v<SCHEMA_VERSION>`` subdirectory; use ``gc(all_schemas=True)``
        to drop stale-version rows too.
        """
        try:
            with self._lock:
                conn = self._connect()
                cursor = conn.execute(
                    "DELETE FROM results WHERE schema_version = ?",
                    (SCHEMA_VERSION,))
                conn.commit()
            return cursor.rowcount
        except (sqlite3.Error, OSError):
            return 0

    def __len__(self) -> int:
        try:
            with self._lock:
                row = self._connect().execute(
                    "SELECT COUNT(*) FROM results "
                    "WHERE schema_version = ?", (SCHEMA_VERSION,)).fetchone()
            return int(row[0])
        except (sqlite3.Error, OSError):
            return 0

    def describe(self) -> str:
        return (f"store {self.path}: {self.hits} hits, "
                f"{self.misses} misses, {self.stores} stored")

    # -- maintenance -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The corpus shape: entries, bytes, kinds, schema versions."""
        base: Dict[str, Any] = {
            "backend": "sqlite",
            "location": str(self.path),
            "schema": SCHEMA_VERSION,
            "entries": 0,
            "payload_bytes": 0,
            "by_kind": {},
            "schema_versions": {},
            "db_bytes": 0,
        }
        try:
            with self._lock:
                conn = self._connect()
                row = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(payload_bytes), 0) "
                    "FROM results WHERE schema_version = ?",
                    (SCHEMA_VERSION,)).fetchone()
                base["entries"], base["payload_bytes"] = int(row[0]), \
                    int(row[1])
                base["by_kind"] = {
                    kind: count for kind, count in conn.execute(
                        "SELECT kind, COUNT(*) FROM results "
                        "WHERE schema_version = ? GROUP BY kind "
                        "ORDER BY kind", (SCHEMA_VERSION,))}
                base["schema_versions"] = {
                    str(version): count for version, count in conn.execute(
                        "SELECT schema_version, COUNT(*) FROM results "
                        "GROUP BY schema_version ORDER BY schema_version")}
            base["db_bytes"] = os.path.getsize(self.path)
        except (sqlite3.Error, OSError):
            pass
        return base

    def gc(self, max_age_days: Optional[float] = None,
           max_entries: Optional[int] = None,
           max_bytes: Optional[int] = None,
           all_schemas: bool = False) -> int:
        """Prune the corpus; returns the number of rows removed.

        * ``max_age_days`` drops rows not used within the window;
        * ``max_entries`` / ``max_bytes`` keep the most recently used
          rows within the budget (least-recently-used rows go first);
        * ``all_schemas=True`` first drops every row written under a
          schema version other than the current one (stale corpora).
        """
        removed = 0
        try:
            with self._lock:
                conn = self._connect()
                if all_schemas:
                    removed += conn.execute(
                        "DELETE FROM results WHERE schema_version != ?",
                        (SCHEMA_VERSION,)).rowcount
                if max_age_days is not None:
                    cutoff = time.time() - max_age_days * 86_400.0
                    removed += conn.execute(
                        "DELETE FROM results WHERE last_used_at < ?",
                        (cutoff,)).rowcount
                if max_entries is not None:
                    removed += conn.execute(
                        "DELETE FROM results WHERE (schema_version, job_key)"
                        " NOT IN (SELECT schema_version, job_key FROM "
                        "results ORDER BY last_used_at DESC LIMIT ?)",
                        (max(0, max_entries),)).rowcount
                if max_bytes is not None:
                    # Walk rows newest-first, keep until the budget is
                    # spent, drop the rest.
                    keep = []
                    spent = 0
                    for version, key, size in conn.execute(
                            "SELECT schema_version, job_key, payload_bytes "
                            "FROM results ORDER BY last_used_at DESC"):
                        if spent + size > max_bytes:
                            break
                        spent += size
                        keep.append((version, key))
                    total = conn.execute(
                        "SELECT COUNT(*) FROM results").fetchone()[0]
                    if len(keep) < total:
                        conn.execute(
                            "CREATE TEMP TABLE IF NOT EXISTS _keep "
                            "(schema_version INTEGER, job_key TEXT)")
                        conn.execute("DELETE FROM _keep")
                        conn.executemany(
                            "INSERT INTO _keep VALUES (?, ?)", keep)
                        removed += conn.execute(
                            "DELETE FROM results WHERE (schema_version, "
                            "job_key) NOT IN (SELECT schema_version, "
                            "job_key FROM _keep)").rowcount
                conn.commit()
        except (sqlite3.Error, OSError):
            pass
        return removed
