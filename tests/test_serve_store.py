"""Tests for the shared result stores (repro.serve.store + exec.cache).

Covers the SQLite store's ResultCache contract, the maintenance surface
(stats / gc) of both store backends, ``make_cache`` selection, and the
concurrency guarantees: multiple processes hammering one directory
cache (racing ``put`` against ``clear``) and one SQLite database
(racing upserts) must never lose a write or surface a torn entry.
"""

import json
import multiprocessing
import os
import sqlite3

import pytest

from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.cache import (NullCache, ResultCache, STORE_ENV,
                              STORE_KINDS, default_store_kind, enable_wal,
                              make_cache)
from repro.exec.job import SCHEMA_VERSION, SimResult, workload_job
from repro.serve.store import SQLiteResultStore, default_db_path

BUDGET = 400


def fake_result(job, cycles=123):
    """A synthetic result: store tests never need a real simulation."""
    return SimResult(job_key=job.key(), kind=job.kind, target=job.target,
                     policy=job.policy, cycles=cycles,
                     instructions=job.instructions,
                     counters={"dcache_read_misses": 1})


def make_job(budget=BUDGET, benchmark="namd"):
    return workload_job(benchmark, CommitPolicy.WFC, instructions=budget)


class TestSQLiteStoreContract:
    def test_round_trip_marks_from_cache(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        job = make_job()
        assert store.get(job) is None
        assert store.misses == 1
        store.put(job, fake_result(job))
        assert store.stores == 1
        cached = store.get(job)
        assert cached is not None and cached.from_cache
        assert cached.cycles == 123
        assert cached.counters == {"dcache_read_misses": 1}
        assert store.hits == 1

    def test_upsert_last_write_wins(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        job = make_job()
        store.put(job, fake_result(job, cycles=1))
        store.put(job, fake_result(job, cycles=2))
        assert len(store) == 1
        assert store.get(job).cycles == 2

    def test_distinct_jobs_distinct_rows(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        first, second = make_job(), make_job(budget=BUDGET + 1)
        store.put(first, fake_result(first))
        store.put(second, fake_result(second))
        assert len(store) == 2

    def test_clear_drops_current_schema_only(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        job = make_job()
        store.put(job, fake_result(job))
        # Plant a stale-schema row directly; clear() must not touch it.
        store._connect().execute(
            "INSERT INTO results VALUES (?, ?, 'workload', 'x', 'wfc',"
            " '{}', 2, 0, 0)", (SCHEMA_VERSION - 1, "stale"))
        store._conn.commit()
        assert store.clear() == 1
        assert len(store) == 0
        assert store.stats()["schema_versions"] == {
            str(SCHEMA_VERSION - 1): 1}

    def test_stats_shape(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        job = make_job()
        store.put(job, fake_result(job))
        stats = store.stats()
        assert stats["backend"] == "sqlite"
        assert stats["entries"] == 1
        assert stats["payload_bytes"] > 0
        assert stats["by_kind"] == {"workload": 1}
        assert stats["db_bytes"] > 0

    def test_corrupt_row_degrades_to_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        job = make_job()
        store.put(job, fake_result(job))
        store._connect().execute(
            "UPDATE results SET payload = 'not json'")
        store._conn.commit()
        assert store.get(job) is None
        assert store.misses == 1

    def test_unwritable_db_degrades_to_warning(self, tmp_path, capsys):
        store = SQLiteResultStore(tmp_path / "missing" / "db.sqlite")
        (tmp_path / "missing").mkdir()
        (tmp_path / "missing" / "db.sqlite").mkdir()   # dir, not a file
        job = make_job()
        store.put(job, fake_result(job))
        store.put(job, fake_result(job))
        assert store.stores == 0
        assert capsys.readouterr().err.count("result store disabled") == 1

    def test_db_path_accepts_file_or_directory(self, tmp_path):
        assert default_db_path(tmp_path) == tmp_path / "results.sqlite"
        assert default_db_path(tmp_path / "corpus.db") == \
            tmp_path / "corpus.db"

    def test_db_path_existing_dotted_directory_stays_a_directory(
            self, tmp_path):
        # mktemp -d style: an existing directory whose name contains a
        # dot must still get results.sqlite inside it, not become the
        # database path itself.
        dotted = tmp_path / "tmp.Xa9Qz"
        dotted.mkdir()
        assert default_db_path(dotted) == dotted / "results.sqlite"
        store = SQLiteResultStore(dotted)
        job = make_job()
        store.put(job, fake_result(job))
        assert store.stores == 1
        assert (dotted / "results.sqlite").exists()


class TestSQLiteGc:
    def seed(self, tmp_path, count=4):
        store = SQLiteResultStore(tmp_path)
        jobs = [make_job(budget=BUDGET + i) for i in range(count)]
        for job in jobs:
            store.put(job, fake_result(job))
        return store, jobs

    def test_gc_by_entries_keeps_most_recent(self, tmp_path):
        store, jobs = self.seed(tmp_path)
        store.get(jobs[-1])            # refresh last_used_at
        assert store.gc(max_entries=1) == 3
        assert store.get(jobs[-1]) is not None

    def test_gc_by_age(self, tmp_path):
        store, _ = self.seed(tmp_path)
        assert store.gc(max_age_days=0.0) == 4
        assert len(store) == 0
        assert store.gc(max_age_days=1.0) == 0

    def test_gc_by_bytes(self, tmp_path):
        store, _ = self.seed(tmp_path)
        row_bytes = store.stats()["payload_bytes"] // 4
        assert store.gc(max_bytes=row_bytes * 2) == 2
        assert len(store) == 2

    def test_gc_all_schemas_drops_stale_rows(self, tmp_path):
        store, _ = self.seed(tmp_path, count=1)
        store._connect().execute(
            "INSERT INTO results VALUES (?, ?, 'workload', 'x', 'wfc',"
            " '{}', 2, 0, 0)", (SCHEMA_VERSION - 1, "stale"))
        store._conn.commit()
        assert store.gc(all_schemas=True) == 1
        assert len(store) == 1


class TestDirCacheMaintenance:
    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, fake_result(job))
        stats = cache.stats()
        assert stats["backend"] == "dir"
        assert stats["entries"] == 1
        assert stats["payload_bytes"] > 0

    def test_gc_by_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [make_job(budget=BUDGET + i) for i in range(3)]
        for job in jobs:
            cache.put(job, fake_result(job))
        assert cache.gc(max_entries=1) == 2
        assert len(cache) == 1

    def test_gc_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, fake_result(job))
        assert cache.gc(max_age_days=1.0) == 0
        old = cache.path_for(job)
        os.utime(old, (0, 0))
        assert cache.gc(max_age_days=1.0) == 1

    def test_temp_files_never_counted_or_cleared(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, fake_result(job))
        stray = cache.directory / ".tmp-in-flight.json"
        stray.write_text("{}")
        assert len(cache) == 1
        assert cache.clear() == 1
        assert stray.exists()          # a writer may still own it


class TestMakeCache:
    def test_kinds(self, tmp_path):
        assert isinstance(make_cache("dir", tmp_path), ResultCache)
        assert isinstance(make_cache("sqlite", tmp_path),
                          SQLiteResultStore)
        assert isinstance(make_cache("dir", enabled=False), NullCache)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_cache("redis")

    def test_env_selects_default(self, monkeypatch, tmp_path):
        assert default_store_kind() == "dir"
        monkeypatch.setenv(STORE_ENV, "sqlite")
        assert default_store_kind() == "sqlite"
        assert isinstance(make_cache(None, tmp_path), SQLiteResultStore)
        assert "sqlite" in STORE_KINDS

    def test_null_cache_maintenance_surface(self):
        cache = NullCache()
        assert cache.stats()["entries"] == 0
        assert cache.gc(max_entries=0) == 0


class _LockedThenOpen:
    """A connection stand-in whose first ``failures`` statements fail."""

    def __init__(self, failures, message="database is locked"):
        self.failures = failures
        self.message = message
        self.calls = 0

    def execute(self, _sql):
        self.calls += 1
        if self.calls <= self.failures:
            raise sqlite3.OperationalError(self.message)


class TestEnableWal:
    def test_retries_a_locked_answer(self):
        conn = _LockedThenOpen(failures=3)
        enable_wal(conn, busy_timeout_ms=10_000)
        assert conn.calls == 4

    def test_gives_up_when_the_timeout_runs_out(self):
        conn = _LockedThenOpen(failures=10**6)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            enable_wal(conn, busy_timeout_ms=20)

    def test_other_errors_are_not_retried(self):
        conn = _LockedThenOpen(failures=1, message="disk I/O error")
        with pytest.raises(sqlite3.OperationalError, match="disk"):
            enable_wal(conn, busy_timeout_ms=10_000)
        assert conn.calls == 1


# ---------------------------------------------------------------------------
# multi-process hammering (the PR's atomicity regression tests)
# ---------------------------------------------------------------------------

ITERATIONS = 40


def _dir_hammer(args):
    """One writer process: puts racing clears in a shared directory."""
    directory, worker_id = args
    cache = ResultCache(directory)
    for index in range(ITERATIONS):
        job = make_job(budget=1000 + worker_id * ITERATIONS + index)
        cache.put(job, fake_result(job))
        if index % 5 == worker_id % 5:
            cache.clear()
        cache.get(job)
    return cache.stores, cache._store_warned


def _sqlite_hammer(args):
    """One writer process: upserts shared and private keys."""
    directory, worker_id = args
    store = SQLiteResultStore(directory)
    for index in range(ITERATIONS):
        shared = make_job(budget=2000 + index % 3)      # contended keys
        private = make_job(budget=3000 + worker_id * ITERATIONS + index)
        store.put(shared, fake_result(shared, cycles=worker_id))
        store.put(private, fake_result(private))
        store.get(shared)
    return store.stores, store._store_warned


class TestConcurrentWriters:
    WORKERS = 4

    def _run(self, target, directory):
        with multiprocessing.get_context("fork").Pool(self.WORKERS) \
                as pool:
            return pool.map(target,
                            [(str(directory), worker)
                             for worker in range(self.WORKERS)])

    def test_dir_cache_put_survives_racing_clear(self, tmp_path):
        outcomes = self._run(_dir_hammer, tmp_path)
        # Every put must land (or be re-tried) without tripping the
        # store-disabled warning: racing clear() is a normal condition.
        assert all(not warned for _, warned in outcomes)
        assert [stores for stores, _ in outcomes] == \
            [ITERATIONS] * self.WORKERS
        cache = ResultCache(tmp_path)
        for path in cache._entries():
            json.loads(path.read_text())        # no torn entries

    def test_sqlite_store_concurrent_upserts(self, tmp_path):
        outcomes = self._run(_sqlite_hammer, tmp_path)
        assert all(not warned for _, warned in outcomes)
        assert [stores for stores, _ in outcomes] == \
            [2 * ITERATIONS] * self.WORKERS
        store = SQLiteResultStore(tmp_path)
        # 3 contended keys + WORKERS * ITERATIONS private keys, each a
        # single valid row.
        assert len(store) == 3 + self.WORKERS * ITERATIONS
        contended = make_job(budget=2000)
        result = store.get(contended)
        assert result is not None
        assert result.cycles in range(self.WORKERS)
