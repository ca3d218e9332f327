"""What one bench run can check honestly: determinism and backend speedup.

The committed ``benchmarks/baseline.json`` is a timing-free fingerprint
(:func:`~repro.bench.harness.payload_fingerprint`): each row's name,
job key, simulated cycles and instructions.  :func:`compare_payloads`
holds every row, on every backend, to two rules:

* a changed ``job_key`` means the baseline describes a *different*
  simulation (a spec or schema change) — the row is marked stale and
  reported so the baseline gets refreshed, but it does not fail;
* a changed simulated ``cycles`` count under an *unchanged* job key
  means simulator semantics drifted without a schema bump — that is a
  correctness failure and fails the run.

Rows present on only one side are reported but never fail — adding a
bench must not break CI.

Wall-clock is never compared against the baseline: a time stored on
another host says nothing about this one.  The one timing check is
:func:`backend_speedups`, which pairs rows *within one payload*, so
both sides ran on the same host in the same run.  Speed changes
between revisions are measured by same-host parent/change pairs in
``perfbench/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.bench.harness import inst_per_sec
from repro.statistics import geometric_mean


@dataclass
class BenchDelta:
    """One row's current-vs-baseline determinism check."""

    name: str
    baseline_cycles: Any
    cycles: Any
    stale: bool = False               # baseline is for a different job
    drifted: bool = False             # same job, different cycles
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        if self.stale:
            verdict = "STALE BASELINE"
        elif self.drifted:
            verdict = "CYCLES DRIFTED"
        else:
            verdict = "ok"
        line = (f"{self.name:34s} {self.baseline_cycles!s:>10} -> "
                f"{self.cycles!s:>10} cycles  {verdict}")
        for note in self.notes:
            line += f"\n    note: {note}"
        return line


@dataclass
class ComparisonReport:
    """The comparator's verdict over a whole payload."""

    deltas: List[BenchDelta] = field(default_factory=list)
    only_in_baseline: List[str] = field(default_factory=list)
    only_in_current: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.drifted]

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = ["bench determinism vs baseline (job_key, cycles)"]
        lines.extend(delta.render() for delta in self.deltas)
        if self.only_in_baseline:
            lines.append("only in baseline (not run): "
                         + ", ".join(self.only_in_baseline))
        if self.only_in_current:
            lines.append("only in current (no baseline): "
                         + ", ".join(self.only_in_current))
        lines.append(
            f"verdict: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.failures)} drifted / "
            f"{len(self.deltas)} compared)")
        return "\n".join(lines)


def backend_speedups(payload: Dict[str, Any],
                     reference_backend: str = "cycle"
                     ) -> Dict[str, Any]:
    """Pair every non-reference-backend row with its cycle-core twin.

    Rows pair only within ``payload``, on (benchmark, policy,
    instructions, machine_spec_digest) and equal ``sim_instructions``.
    A pair's speedup is the ratio of the rows' instructions per
    wall-second, so it says how much faster the same instructions
    simulated; cycle counts, which the fast backend only estimates,
    play no part.

    Returns ``{"reference": ..., "pairs": [...], "geomean": g,
    "min": m}`` with an empty ``pairs`` list when nothing pairs up.
    """
    def key(row: Dict[str, Any]) -> tuple:
        return (row.get("benchmark"), row.get("policy"),
                row.get("instructions"), row.get("machine_spec_digest"),
                row.get("sim_instructions"))

    def backend_of(row: Dict[str, Any]) -> str:
        return str(row.get("backend", reference_backend))

    rows = payload.get("results", [])
    references = {key(row): row for row in rows
                  if backend_of(row) == reference_backend}
    pairs: List[Dict[str, Any]] = []
    ratios: List[float] = []
    for row in rows:
        ref_row = references.get(key(row))
        if backend_of(row) == reference_backend or ref_row is None:
            continue
        reference_rate = inst_per_sec(ref_row)
        rate = inst_per_sec(row)
        ratios.append(rate / reference_rate)
        pairs.append({
            "name": row["name"],
            "backend": backend_of(row),
            "reference_name": ref_row["name"],
            "reference_inst_per_sec": round(reference_rate, 1),
            "inst_per_sec": round(rate, 1),
            "speedup": round(rate / reference_rate, 2),
        })
    report: Dict[str, Any] = {"reference": reference_backend,
                              "pairs": pairs}
    if ratios:
        report["geomean"] = round(geometric_mean(ratios), 2)
        report["min"] = round(min(ratios), 2)
    return report


def render_speedups(report: Dict[str, Any]) -> str:
    """Human-readable lines for a :func:`backend_speedups` report."""
    lines = [f"backend speedup vs {report['reference']} "
             f"(instructions/s, same run)"]
    for pair in report["pairs"]:
        lines.append(
            f"{pair['name']:34s} {pair['reference_inst_per_sec']:10,.0f} "
            f"-> {pair['inst_per_sec']:10,.0f}  ({pair['speedup']:5.2f}x)")
    if report["pairs"]:
        lines.append(f"geomean {report['geomean']:.2f}x, "
                     f"min {report['min']:.2f}x over "
                     f"{len(report['pairs'])} pair(s)")
    else:
        lines.append(f"no backend pairs to compare: a pair needs a "
                     f"{report['reference']} row and another backend's "
                     f"row for the same spec in one run "
                     f"(e.g. --backend cycle,fast)")
    return "\n".join(lines)


def compare_payloads(current: Dict[str, Any], baseline: Dict[str, Any]
                     ) -> ComparisonReport:
    """Check a payload against a baseline; see module docstring."""
    current_rows = {row["name"]: row for row in current.get("results", [])}
    baseline_rows = {row["name"]: row for row in baseline.get("results", [])}
    report = ComparisonReport()
    report.only_in_baseline = sorted(set(baseline_rows) - set(current_rows))
    report.only_in_current = sorted(set(current_rows) - set(baseline_rows))
    for name in (n for n in current_rows if n in baseline_rows):
        cur, base = current_rows[name], baseline_rows[name]
        delta = BenchDelta(name=name, baseline_cycles=base.get("cycles"),
                           cycles=cur.get("cycles"))
        if cur.get("job_key") != base.get("job_key"):
            delta.stale = True
            delta.notes.append(
                "job key changed — baseline describes a different "
                "simulation; refresh it (repro bench --update-baseline)")
        elif cur.get("cycles") != base.get("cycles"):
            delta.drifted = True
            delta.notes.append(
                "simulated cycle count changed under an unchanged job "
                "key — simulator semantics drifted; bump SCHEMA_VERSION "
                "or fix the change, then refresh the baseline")
        report.deltas.append(delta)
    return report
