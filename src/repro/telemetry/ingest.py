"""Ingesters: every producer payload the repo emits, normalized.

One entry point, :func:`ingest_payload`, sniffs the artifact shape and
dispatches:

* ``BENCH_<rev>.json`` harness snapshots (``repro.bench``, any
  schema) — one ``inst_per_sec`` point per row, simulated instructions
  over the fastest timed repeat;
* the uniform CLI JSON envelope ``{"schema_version", "rev", "command",
  "payload"}`` — ``verify`` (pass-rate by profile/policy), ``matrix`` /
  ``attack`` (leak verdicts per attack x policy), ``sample`` (stitched
  IPC + CI), ``workload`` / ``run`` (full-run IPC, the sampled-error
  reference).

The input contract is forgiving by design: a malformed or partial
payload is *skipped with a warning* (collected on the returned
:class:`IngestReport`), never raised — rebuilding the dashboard from a
directory of mixed-vintage artifacts must not die on the one file an
old revision wrote differently.  Within a payload, malformed rows are
skipped individually and the well-formed remainder still lands.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.store import TrajectoryPoint, TrajectoryStore

_ENVELOPE_KEYS = {"schema_version", "rev", "command", "payload"}


@dataclass
class IngestReport:
    """What one artifact contributed (or why it was skipped)."""

    source: str
    kind: str                       # bench / verify / ... / skipped
    rev: Optional[str] = None
    points: int = 0
    new_source: bool = True
    warnings: List[str] = field(default_factory=list)

    @property
    def skipped(self) -> bool:
        return self.kind == "skipped"

    def to_dict(self) -> Dict[str, Any]:
        return {"source": self.source, "kind": self.kind, "rev": self.rev,
                "points": self.points, "new_source": self.new_source,
                "warnings": list(self.warnings)}


def _working_tree_rev() -> str:
    from repro.bench.harness import git_revision

    return git_revision()


def _number(value: Any) -> float:
    """``value`` as a float, or raise (bools are not measurements)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# per-shape parsers: (payload, context) -> points, warnings
# ---------------------------------------------------------------------------

def _parse_bench(payload: Dict[str, Any], rev: str, schema: int
                 ) -> Tuple[List[TrajectoryPoint], List[str]]:
    from repro.bench.harness import inst_per_sec

    points: List[TrajectoryPoint] = []
    warnings: List[str] = []
    for row in payload.get("results", []):
        try:
            meta = {key: row[key] for key in
                    ("benchmark", "policy", "instructions", "job_key",
                     "cycles", "sim_instructions", "best_wall_s")
                    if key in row}
            points.append(TrajectoryPoint(
                rev=rev, schema_version=schema, command="bench",
                series="inst_per_sec", label=str(row["name"]),
                backend=str(row.get("backend", "cycle")),
                spec_digest=str(row.get("machine_spec_digest") or ""),
                value=inst_per_sec({
                    key: _number(row[key])
                    for key in ("sim_instructions", "best_wall_s")}),
                unit="inst/s", meta=meta))
        except (KeyError, TypeError, ValueError,
                ZeroDivisionError) as error:
            warnings.append(f"bench row skipped ({error})")
    if not points:
        warnings.append("bench payload contributed no points")
    return points, warnings


def _parse_verify(payload: Dict[str, Any], rev: str, schema: int
                  ) -> Tuple[List[TrajectoryPoint], List[str]]:
    warnings: List[str] = []
    backend = str(payload.get("backend", "cycle"))
    groups: Dict[Tuple[str, str], List[bool]] = {}
    for verdict in payload.get("verdicts", []):
        try:
            key = (str(verdict["profile"]), str(verdict["policy"]))
            groups.setdefault(key, []).append(bool(verdict["ok"]))
        except (KeyError, TypeError) as error:
            warnings.append(f"verify verdict skipped ({error})")
    points: List[TrajectoryPoint] = []
    by_profile: Dict[str, List[bool]] = {}
    for (profile, policy), oks in sorted(groups.items()):
        by_profile.setdefault(profile, []).extend(oks)
        points.append(TrajectoryPoint(
            rev=rev, schema_version=schema, command="verify",
            series="pass_rate", label=f"{profile}/{policy}",
            backend=backend, value=sum(oks) / len(oks), unit="fraction",
            meta={"cases": len(oks), "failures": len(oks) - sum(oks)}))
    for profile, oks in sorted(by_profile.items()):
        points.append(TrajectoryPoint(
            rev=rev, schema_version=schema, command="verify",
            series="pass_rate", label=profile, backend=backend,
            value=sum(oks) / len(oks), unit="fraction",
            meta={"cases": len(oks), "failures": len(oks) - sum(oks)}))
    if not points:
        # Partial payloads (no verdict list) still carry the headline.
        try:
            cases = int(payload["cases"])
            failures = int(payload["failures"])
            profile = str(payload.get("profile", "mixed"))
            points.append(TrajectoryPoint(
                rev=rev, schema_version=schema, command="verify",
                series="pass_rate", label=profile, backend=backend,
                value=(cases - failures) / cases if cases else 0.0,
                unit="fraction",
                meta={"cases": cases, "failures": failures}))
        except (KeyError, TypeError, ValueError):
            warnings.append("verify payload has neither verdicts nor "
                            "cases/failures totals")
    return points, warnings


def _verdict_point(rev: str, schema: int, attack: str, policy: str,
                   closed: bool, backend: str) -> TrajectoryPoint:
    return TrajectoryPoint(
        rev=rev, schema_version=schema, command="matrix",
        series="verdict", label=f"{attack}/{policy}", backend=backend,
        value=1.0 if closed else 0.0,
        text="closed" if closed else "LEAKED")


def _parse_matrix(payload: Dict[str, Any], rev: str, schema: int
                  ) -> Tuple[List[TrajectoryPoint], List[str]]:
    points: List[TrajectoryPoint] = []
    warnings: List[str] = []
    backend = str(payload.get("backend", "cycle"))
    matrix = payload.get("matrix")
    if not isinstance(matrix, dict):
        return [], ["matrix payload has no attack/policy cells"]
    for attack, row in matrix.items():
        if not isinstance(row, dict):
            warnings.append(f"matrix row {attack!r} skipped (not a dict)")
            continue
        for policy, cell in row.items():
            try:
                points.append(_verdict_point(
                    rev, schema, str(attack), str(policy),
                    bool(cell["closed"]), backend))
            except (KeyError, TypeError) as error:
                warnings.append(
                    f"matrix cell {attack}/{policy} skipped ({error})")
    return points, warnings


def _parse_attack(payload: Dict[str, Any], rev: str, schema: int
                  ) -> Tuple[List[TrajectoryPoint], List[str]]:
    points: List[TrajectoryPoint] = []
    warnings: List[str] = []
    for record in payload.get("results", []):
        try:
            points.append(_verdict_point(
                rev, schema, str(record["attack"]),
                str(record["policy"]),
                record["leaked"] != record["secret"],
                str(record.get("backend", "cycle"))))
        except (KeyError, TypeError) as error:
            warnings.append(f"attack record skipped ({error})")
    if not points:
        warnings.append("attack payload contributed no points")
    return points, warnings


def _parse_sample(payload: Dict[str, Any], rev: str, schema: int
                  ) -> Tuple[List[TrajectoryPoint], List[str]]:
    try:
        label = f"{payload['target']}/{payload['policy']}"
        point = TrajectoryPoint(
            rev=rev, schema_version=schema, command="sample",
            series="stitched_ipc", label=label,
            backend=str(payload.get("backend", "cycle")),
            value=_number(payload["stitched_ipc"]), unit="ipc",
            meta={key: payload[key] for key in
                  ("ipc_ci95", "ipc_mean", "ipc_std", "coverage",
                   "total_instructions", "measured_windows",
                   "cached_windows", "plan") if key in payload})
    except (KeyError, TypeError, ValueError) as error:
        return [], [f"sample payload skipped ({error})"]
    return [point], []


def _parse_workload(payload: Dict[str, Any], rev: str, schema: int
                    ) -> Tuple[List[TrajectoryPoint], List[str]]:
    points: List[TrajectoryPoint] = []
    warnings: List[str] = []
    policy = payload.get("policy")
    backend = str(payload.get("backend", "cycle"))
    for run in payload.get("runs", []):
        try:
            points.append(TrajectoryPoint(
                rev=rev, schema_version=schema, command="workload",
                series="ipc", label=f"{run['benchmark']}/{policy}",
                backend=backend, value=_number(run["ipc"]), unit="ipc",
                meta={"cycles": run.get("cycles"),
                      "instructions": payload.get("instructions")}))
        except (KeyError, TypeError, ValueError) as error:
            warnings.append(f"workload run skipped ({error})")
    if not points:
        warnings.append("workload payload contributed no points")
    return points, warnings


_ENVELOPE_PARSERS: Dict[str, Callable[..., Tuple[List[TrajectoryPoint],
                                                 List[str]]]] = {
    "verify": _parse_verify,
    "matrix": _parse_matrix,
    "attack": _parse_attack,
    "sample": _parse_sample,
    "workload": _parse_workload,
    "run": _parse_workload,
}


# ---------------------------------------------------------------------------
# the entry points
# ---------------------------------------------------------------------------

def ingest_payload(store: TrajectoryStore, payload: Any,
                   source: str = "<memory>",
                   default_rev: Optional[str] = None) -> IngestReport:
    """Normalize one artifact into ``store``; never raises on bad input.

    Returns an :class:`IngestReport`; a payload whose shape is not
    recognized (or that contributes nothing) comes back with
    ``kind="skipped"`` and a warning, leaving the store untouched.
    """
    if not isinstance(payload, dict):
        return IngestReport(source=source, kind="skipped", warnings=[
            f"not a JSON object ({type(payload).__name__}); skipped"])

    if "schema" in payload and "results" in payload:
        # A bench harness snapshot (BENCH_<rev>.json), any schema.
        kind = "bench"
        rev = str(payload.get("rev") or default_rev
                  or _working_tree_rev())
        schema = int(payload.get("schema") or 0)
        points, warnings = _parse_bench(payload, rev, schema)
    elif _ENVELOPE_KEYS.issubset(payload):
        command = str(payload["command"])
        parser = _ENVELOPE_PARSERS.get(command)
        if parser is None:
            return IngestReport(
                source=source, kind="skipped", rev=str(payload["rev"]),
                warnings=[f"no ingester for command {command!r}; "
                          f"skipped"])
        kind = command
        rev = str(payload["rev"])
        try:
            schema = int(payload["schema_version"])
            body = payload["payload"]
            if not isinstance(body, dict):
                raise TypeError("payload body is not an object")
            points, warnings = parser(body, rev, schema)
        except (KeyError, TypeError, ValueError) as error:
            return IngestReport(source=source, kind="skipped", rev=rev,
                                warnings=[f"malformed {command} envelope "
                                          f"({error}); skipped"])
    else:
        return IngestReport(source=source, kind="skipped", warnings=[
            "unrecognized payload shape (not a bench snapshot or CLI "
            "envelope); skipped"])

    if not points:
        return IngestReport(source=source, kind="skipped", rev=rev,
                            warnings=warnings or ["no points; skipped"])
    store.upsert(points)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    new = store.record_source(digest, kind, rev, source, len(points))
    return IngestReport(source=source, kind=kind, rev=rev,
                        points=len(points), new_source=new,
                        warnings=warnings)


def ingest_file(store: TrajectoryStore, path: str,
                default_rev: Optional[str] = None) -> IngestReport:
    """Read + ingest one JSON artifact; unreadable files skip-warn."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        return IngestReport(source=path, kind="skipped", warnings=[
            f"unreadable artifact ({error}); skipped"])
    return ingest_payload(store, payload, source=path,
                          default_rev=default_rev)
