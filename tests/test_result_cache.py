"""Tests for the directory result cache's maintenance surface.

Covers ``stats`` / ``gc`` / ``clear`` on :class:`ResultCache` and
:class:`NullCache`, and the concurrency guarantee: multiple processes
hammering one directory cache (racing ``put`` against ``clear``) must
never lose a write or surface a torn entry.
"""

import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.cache import NullCache, ResultCache
from repro.exec.job import SCHEMA_VERSION, SimResult, workload_job

BUDGET = 400

# gc budgets as (library keyword, CLI flag).
GC_BUDGETS = [("max_entries", "--max-entries"),
              ("max_bytes", "--max-bytes"),
              ("max_age_days", "--max-age-days")]


def fake_result(job, cycles=123):
    """A synthetic result: cache tests never need a real simulation."""
    return SimResult(job_key=job.key(), kind=job.kind, target=job.target,
                     policy=job.policy, cycles=cycles,
                     instructions=job.instructions,
                     counters={"dcache_read_misses": 1})


def make_job(budget=BUDGET, benchmark="namd"):
    return workload_job(benchmark, CommitPolicy.WFC, instructions=budget)


def plant_stale_entry(base, version=1):
    """One completed entry and one in-flight temp file in ``v<version>/``."""
    stale_dir = base / f"v{version}"
    stale_dir.mkdir(parents=True)
    (stale_dir / "abc.json").write_text("{}")
    (stale_dir / ".tmp-in-flight.json").write_text("{}")
    return stale_dir


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

    def test_gc_all_schemas_drops_other_versions_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, fake_result(job))
        stale_dir = plant_stale_entry(tmp_path)
        unrelated = tmp_path / "vendor"
        unrelated.mkdir()
        (unrelated / "keep.json").write_text("{}")
        assert cache.gc(all_schemas=True) == 1
        assert not (stale_dir / "abc.json").exists()
        assert (stale_dir / ".tmp-in-flight.json").exists()
        assert (unrelated / "keep.json").exists()
        assert cache.get(job) is not None
        assert cache.gc(all_schemas=True) == 0

    def test_cli_gc_all_schemas(self, tmp_path, capsys):
        stale_dir = plant_stale_entry(tmp_path)
        current = tmp_path / f"v{SCHEMA_VERSION}"
        current.mkdir()
        (current / "def.json").write_text("{}")
        assert main(["cache", "gc", "--all-schemas",
                     "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == \
            "gc: removed 1 entries (1 remain)"
        assert not (stale_dir / "abc.json").exists()
        assert (current / "def.json").exists()


def filled_cache(path):
    """A directory cache holding two entries."""
    cache = ResultCache(path)
    for index in range(2):
        job = make_job(budget=BUDGET + index)
        cache.put(job, fake_result(job))
    return cache


@pytest.mark.parametrize(("keyword", "flag"), GC_BUDGETS,
                         ids=[flag for _, flag in GC_BUDGETS])
class TestGcBudgets:
    """A negative budget is a mistake, not "delete everything"."""

    def test_negative_budget_raises_and_keeps_every_entry(
            self, tmp_path, keyword, flag):
        cache = filled_cache(tmp_path)
        with pytest.raises(ConfigError, match=keyword):
            cache.gc(**{keyword: -1})
        assert len(cache) == 2

    def test_cli_negative_budget_exits_1_and_keeps_every_entry(
            self, tmp_path, capsys, keyword, flag):
        cache = filled_cache(tmp_path)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     flag, "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert len(cache) == 2

    def test_zero_budget_stays_valid(self, tmp_path, keyword, flag):
        cache = filled_cache(tmp_path)
        if keyword == "max_age_days":
            for path in cache.directory.glob("*.json"):
                os.utime(path, (0, 0))
        assert cache.gc(**{keyword: 0}) == 2
        assert len(cache) == 0


class TestNullCache:
    def test_null_cache_maintenance_surface(self):
        cache = NullCache()
        assert cache.stats()["entries"] == 0
        assert cache.gc(max_entries=0, all_schemas=True) == 0


# ---------------------------------------------------------------------------
# multi-process hammering (atomicity regression test)
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
