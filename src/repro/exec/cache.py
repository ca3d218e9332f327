"""Persistent on-disk result cache keyed by job content hash.

Results live as one JSON file per job under
``<cache-dir>/v<SCHEMA_VERSION>/<job-key>.json``.  The directory defaults
to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; bumping
:data:`~repro.exec.job.SCHEMA_VERSION` namespaces away entries written by
incompatible simulator versions (``gc(all_schemas=True)`` reclaims them).  Writes are atomic (temp file +
``os.replace``) so concurrent processes never observe torn entries, and
unreadable entries degrade to cache misses.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigError
from repro.exec.job import SCHEMA_VERSION, SimJob, SimResult

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

# Temp files carry this prefix so clear()/len() never touch an entry
# another process is still writing (a racing clear() unlinking a temp
# file mid-write used to surface as a spurious "cache disabled").
_TMP_PREFIX = ".tmp-"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """A directory of cached :class:`SimResult` JSON files."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        base = Path(directory) if directory is not None \
            else default_cache_dir()
        self.directory = base / f"v{SCHEMA_VERSION}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._store_warned = False

    def path_for(self, job: SimJob) -> Path:
        return self.directory / f"{job.key()}.json"

    def get(self, job: SimJob) -> Optional[SimResult]:
        """The cached result for ``job``, or None (counted as a miss)."""
        path = self.path_for(job)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result = SimResult.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # Missing, corrupt or schema-incompatible entry (including
            # valid JSON that is not a result object): recompute.
            self.misses += 1
            return None
        result.from_cache = True
        self.hits += 1
        return result

    def put(self, job: SimJob, result: SimResult) -> None:
        """Atomically persist ``result`` under ``job``'s hash.

        An unwritable cache location must not discard a simulation that
        already ran: storage failures degrade to a one-time warning.
        """
        payload = result.to_dict()
        # Two attempts: a concurrent clear() (or cache wipe) racing the
        # temp file between mkstemp and os.replace surfaces as a
        # spurious OSError on a perfectly writable directory — recreate
        # and retry once before concluding the location is unusable.
        error: Optional[OSError] = None
        for _ in range(2):
            tmp_name = None
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    dir=self.directory, prefix=_TMP_PREFIX, suffix=".json")
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, separators=(",", ":"))
                os.replace(tmp_name, self.path_for(job))
            except OSError as exc:
                error = exc
                if tmp_name is not None:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                continue
            self.stores += 1
            return
        if not self._store_warned:
            print(f"warning: result cache disabled for this run: "
                  f"cannot write {self.directory} ({error})",
                  file=sys.stderr)
            self._store_warned = True

    def _entries(self):
        """Completed entry files only — in-flight temp files excluded,
        so a concurrent writer's half-written entry is never counted,
        cleared, or collected."""
        if not self.directory.is_dir():
            return
        for path in self.directory.glob("*.json"):
            if not path.name.startswith(_TMP_PREFIX):
                yield path

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def describe(self) -> str:
        return (f"cache {self.directory}: {self.hits} hits, "
                f"{self.misses} misses, {self.stores} stored")

    def stats(self) -> Dict[str, Any]:
        """The corpus shape: entry count and payload bytes."""
        entries = 0
        payload_bytes = 0
        for path in self._entries():
            try:
                payload_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "backend": "dir",
            "location": str(self.directory),
            "schema": SCHEMA_VERSION,
            "entries": entries,
            "payload_bytes": payload_bytes,
        }

    def gc(self, max_age_days: Optional[float] = None,
           max_entries: Optional[int] = None,
           max_bytes: Optional[int] = None,
           all_schemas: bool = False) -> int:
        """Prune entries by age and/or size; returns the number removed.

        ``max_age_days`` drops entries whose file mtime (refreshed on
        every store) is outside the window; ``max_entries`` /
        ``max_bytes`` keep the newest entries within the budget.
        ``all_schemas=True`` also drops every completed entry in the
        sibling ``v<N>/`` directories of other schema versions.  Stale
        temp files older than a day are swept too (an interrupted writer
        orphans at most one).  A negative budget raises
        :class:`~repro.errors.ConfigError` before any file is touched;
        ``0`` keeps nothing.
        """
        for name, budget in (("max_age_days", max_age_days),
                             ("max_entries", max_entries),
                             ("max_bytes", max_bytes)):
            if budget is not None and budget < 0:
                raise ConfigError(f"{name} must be >= 0, got {budget}")
        removed = 0
        now = time.time()
        if all_schemas:
            for path in self.directory.parent.glob("v*/*.json"):
                if (path.parent != self.directory
                        and path.parent.name[1:].isdigit()
                        and not path.name.startswith(_TMP_PREFIX)):
                    removed += _unlink_quiet(path)
        survivors = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            age_days = (now - stat.st_mtime) / 86_400.0
            if max_age_days is not None and age_days > max_age_days:
                removed += _unlink_quiet(path)
            else:
                survivors.append((stat.st_mtime, stat.st_size, path))
        if max_entries is not None or max_bytes is not None:
            survivors.sort(reverse=True)        # newest first
            spent_bytes = 0
            for index, (_, size, path) in enumerate(survivors):
                spent_bytes += size
                over_count = (max_entries is not None
                              and index >= max_entries)
                over_bytes = (max_bytes is not None
                              and spent_bytes > max_bytes)
                if over_count or over_bytes:
                    removed += _unlink_quiet(path)
        if self.directory.is_dir():
            for path in self.directory.glob(f"{_TMP_PREFIX}*"):
                try:
                    if now - path.stat().st_mtime > 86_400.0:
                        removed += _unlink_quiet(path)
                except OSError:
                    pass
        return removed


class NullCache:
    """Cache stand-in used by ``--no-cache``: never hits, never stores."""

    directory = None

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, job: SimJob) -> Optional[SimResult]:
        self.misses += 1
        return None

    def put(self, job: SimJob, result: SimResult) -> None:
        pass

    def clear(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def describe(self) -> str:
        return "cache disabled"

    def stats(self) -> Dict[str, Any]:
        return {"backend": "null", "location": None,
                "schema": SCHEMA_VERSION, "entries": 0, "payload_bytes": 0}

    def gc(self, max_age_days: Optional[float] = None,
           max_entries: Optional[int] = None,
           max_bytes: Optional[int] = None,
           all_schemas: bool = False) -> int:
        return 0


def _unlink_quiet(path: Path) -> int:
    try:
        path.unlink()
        return 1
    except OSError:
        return 0
