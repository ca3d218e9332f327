"""repro.telemetry — longitudinal perf/security trajectory telemetry.

The observability layer the rest of the stack reports into: every
artifact the repo emits (``BENCH_<rev>.json`` snapshots, ``verify`` /
``matrix`` / ``sample`` / ``workload`` CLI JSON envelopes) ingests
into one SQLite :class:`TrajectoryStore`, and
:func:`render_dashboard` turns the store into a single self-contained
offline HTML dashboard.

Three entry points share the machinery:

* :class:`Telemetry` (via ``Session.telemetry()``) for programmatic use;
* ``repro telemetry ingest|render|show`` on the command line;
* the ``telemetry-smoke`` CI job, which rebuilds the dashboard from the
  committed artifacts on every push.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.ingest import (IngestReport, ingest_file,
                                    ingest_payload)
from repro.telemetry.render import collect_dashboard_data, render_dashboard
from repro.telemetry.store import (TELEMETRY_SCHEMA_VERSION,
                                   TrajectoryPoint, TrajectoryStore,
                                   default_telemetry_db)

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "IngestReport",
    "Telemetry",
    "TrajectoryPoint",
    "TrajectoryStore",
    "collect_dashboard_data",
    "default_telemetry_db",
    "ingest_file",
    "ingest_payload",
    "render_dashboard",
]


class Telemetry:
    """Facade over one trajectory database.

    Owns a :class:`TrajectoryStore` and exposes the full loop —
    ingest artifacts, inspect the corpus, render the dashboard —
    without touching the lower-level modules.  Usable as a context
    manager; ``Session.telemetry()`` constructs one.
    """

    def __init__(self, db: Union[str, Path, None] = None) -> None:
        self.store = TrajectoryStore(db)

    # -- ingest ------------------------------------------------------------

    def ingest(self, payload: Any, source: str = "<memory>",
               rev: Optional[str] = None) -> IngestReport:
        """Ingest one already-parsed payload (dict)."""
        return ingest_payload(self.store, payload, source=source,
                              default_rev=rev)

    def ingest_file(self, path: Union[str, Path],
                    rev: Optional[str] = None) -> IngestReport:
        """Ingest one JSON artifact from disk; never raises."""
        return ingest_file(self.store, str(path), default_rev=rev)

    def ingest_files(self, paths: List[Union[str, Path]],
                     rev: Optional[str] = None) -> List[IngestReport]:
        return [self.ingest_file(path, rev=rev) for path in paths]

    # -- inspect / render --------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return self.store.summary()

    def data(self) -> Dict[str, Any]:
        """The dashboard's full data tree (what the HTML embeds)."""
        return collect_dashboard_data(self.store)

    def render(self, output: Union[str, Path, None] = None,
               title: str = "SafeSpec reproduction telemetry") -> str:
        """Render the dashboard; write it to ``output`` when given."""
        page = render_dashboard(self.store, title=title)
        if output is not None:
            Path(output).write_text(page, encoding="utf-8")
        return page

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
