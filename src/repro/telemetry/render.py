"""Static HTML dashboard over a :class:`TrajectoryStore`.

One self-contained file: CSS and data inline, charts as inline SVG, no
scripts fetched and no network references — the artifact renders
identically from a CI artifact store, a pages branch, or ``file://``.
Given the same store contents the output is byte-identical, so a
re-ingest + re-render round trip is a no-op (the idempotency the CI job
asserts).

Sections:

* **backend speedup** — geomean fast-vs-cycle instructions/s ratio per
  revision, paired within that revision's bench rows exactly as
  ``repro bench`` pairs them (bench timings from different revisions
  ran on different hosts, so no raw-speed trend is drawn);
* **security verdicts** — the latest leak matrix plus every cell that
  changed between adjacent revisions (the paper's claims are exactly
  that this list stays empty while the trends climb);
* **verify pass-rate** by fuzz profile;
* **sampled IPC** — stitched estimates with 95% CI bars, and the error
  against the full run whenever the same revision ingested one.

Colors follow the mark's job: categorical series hues are assigned in a
fixed slot order (never cycled), verdicts wear the reserved status
palette *plus* an icon and a word (never color alone), and text stays
in ink tokens.  Light and dark are both selected palettes — the
dark values are the documented dark-surface steps, not an automatic
flip.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.store import TrajectoryStore

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --good: #0ca30c; --critical: #d03b3b;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --good: #0ca30c; --critical: #d03b3b;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 980px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 2px; }
.subtitle { color: var(--ink-2); margin: 0 0 20px; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px;
}
section p.caption { color: var(--ink-2); margin: 2px 0 10px; }
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin: 0 0 6px;
  color: var(--ink-2); font-size: 12px; align-items: center; }
.legend .chip { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
svg text { fill: var(--ink-muted); font: 11px system-ui, sans-serif; }
svg text.direct { fill: var(--ink-2); font-weight: 600; }
svg text.value { fill: var(--ink-2); }
table { border-collapse: collapse; font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: 4px 12px 4px 0;
  border-bottom: 1px solid var(--grid); font-weight: normal; }
th { color: var(--ink-muted); font-size: 12px; }
td.num, th.num { text-align: right; }
.verdict-closed { color: var(--good); font-weight: 600; }
.verdict-leaked { color: var(--critical); font-weight: 600; }
.delta-none { color: var(--ink-2); }
.empty { color: var(--ink-muted); font-style: italic; }
code { font-size: 12px; }
footer { color: var(--ink-muted); font-size: 12px; margin-top: 8px; }
"""


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------

def collect_dashboard_data(store: TrajectoryStore) -> Dict[str, Any]:
    """Everything the dashboard draws, as one JSON-able tree."""
    from repro.bench.compare import backend_speedups

    revs = store.revisions()
    rev_index = {rev: index for index, rev in enumerate(revs)}

    # Bench: rebuild each revision's rows from its inst/s points and
    # pair them the way `repro bench` does, within that revision only.
    bench_rows: Dict[str, List[Dict[str, Any]]] = {}
    for point in store.points(command="bench", series="inst_per_sec"):
        meta = point.meta
        bench_rows.setdefault(point.rev, []).append({
            "name": point.label, "backend": point.backend,
            "benchmark": meta.get("benchmark"),
            "policy": meta.get("policy"),
            "instructions": meta.get("instructions"),
            "machine_spec_digest": point.spec_digest,
            "sim_instructions": meta.get("sim_instructions"),
            "best_wall_s": meta.get("best_wall_s")})
    speedup_trend = []
    for rev in revs:
        report = backend_speedups({"results": bench_rows.get(rev, [])})
        if report["pairs"]:
            speedup_trend.append({"rev": rev, "speedup": report["geomean"]})

    # Security verdicts: per rev, label -> closed/LEAKED; deltas between
    # adjacent revisions that both carry verdicts.
    verdicts: Dict[str, Dict[str, str]] = {}
    for point in store.points(series="verdict"):
        verdicts.setdefault(point.rev, {})[point.label] = \
            point.text or "?"
    verdict_revs = [rev for rev in revs if rev in verdicts]
    deltas = []
    for previous, current in zip(verdict_revs, verdict_revs[1:]):
        changed = []
        before, after = verdicts[previous], verdicts[current]
        for label in sorted(set(before) | set(after)):
            old, new = before.get(label, "absent"), \
                after.get(label, "absent")
            if old != new:
                changed.append({"cell": label, "from": old, "to": new})
        deltas.append({"from": previous, "to": current,
                       "changed": changed})

    # Verify pass-rate by profile (the per-profile rollup labels have
    # no '/'; per-(profile, policy) splits ride the meta block).
    verify: Dict[str, List[Dict[str, Any]]] = {}
    for point in store.points(command="verify", series="pass_rate"):
        if "/" in point.label:
            continue
        verify.setdefault(point.label, []).append(
            {"rev": point.rev, "rate": point.value or 0.0,
             "cases": point.meta.get("cases"),
             "backend": point.backend})
    for rows in verify.values():
        rows.sort(key=lambda row: rev_index.get(row["rev"], 1 << 30))

    # Sampled IPC (+ the full-run reference when the same rev has one).
    full_ipc: Dict[Tuple[str, str], float] = {}
    for point in store.points(command="workload", series="ipc"):
        full_ipc[(point.rev, point.label)] = point.value or 0.0
    sampled = []
    for point in store.points(command="sample", series="stitched_ipc"):
        reference = full_ipc.get((point.rev, point.label))
        error = (abs((point.value or 0.0) - reference) / reference
                 if reference else None)
        sampled.append({
            "rev": point.rev, "label": point.label,
            "backend": point.backend, "ipc": point.value,
            "ci95": point.meta.get("ipc_ci95"),
            "coverage": point.meta.get("coverage"),
            "full_ipc": reference,
            "error": round(error, 5) if error is not None else None})
    sampled.sort(key=lambda row: (rev_index.get(row["rev"], 1 << 30),
                                  row["label"]))

    summary = store.summary()
    return {
        "revisions": revs,
        "speedup_trend": speedup_trend,
        "verdicts": {rev: verdicts[rev] for rev in verdict_revs},
        "verdict_deltas": deltas,
        "verify": verify,
        "sampled": sampled,
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------

def _ticks(low: float, high: float, count: int = 4) -> List[float]:
    if high <= low:
        high = low + 1.0
    step = (high - low) / count
    return [low + step * index for index in range(count + 1)]


def _fmt(value: float) -> str:
    if value >= 100:
        return f"{value:,.0f}"
    if value >= 1:
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _line_chart(series: Sequence[Dict[str, Any]], xlabels: List[str],
                *, unit: str = "", y_zero: bool = False,
                error_key: Optional[str] = None,
                width: int = 640, height: int = 220) -> str:
    """A multi-series line/marker chart as an inline-SVG string.

    ``series`` rows are ``{"name", "color" (CSS var), "points":
    [(x_index, y, tooltip)], optional "errors": [(x_index, lo, hi)]}``.
    Lines are 2px, markers 8px with native ``<title>`` tooltips, the
    grid is hairline, and each series gets a direct label at its last
    point (the legend is rendered in HTML above the chart).
    """
    pad_left, pad_right, pad_top, pad_bottom = 56, 76, 12, 30
    plot_w = width - pad_left - pad_right
    plot_h = height - pad_top - pad_bottom
    values = [y for row in series for (_x, y, _t) in row["points"]]
    if error_key:
        for row in series:
            for (_x, low, high) in row.get("errors", []):
                values.extend([low, high])
    if not values:
        return "<p class='empty'>no data points yet</p>"
    low, high = min(values), max(values)
    if y_zero:
        low = min(0.0, low)
    span = (high - low) or 1.0
    low -= span * 0.08
    high += span * 0.08
    if y_zero:
        low = max(low, 0.0) if min(values) >= 0 else low

    def sx(index: float) -> float:
        slots = max(len(xlabels) - 1, 1)
        return pad_left + plot_w * (index / slots)

    def sy(value: float) -> float:
        return pad_top + plot_h * (1.0 - (value - low) / (high - low))

    parts = [f'<svg viewBox="0 0 {width} {height}" width="100%" '
             f'role="img" preserveAspectRatio="xMinYMin meet">']
    for tick in _ticks(low, high):
        y = sy(tick)
        parts.append(f'<line x1="{pad_left}" y1="{y:.1f}" '
                     f'x2="{width - pad_right}" y2="{y:.1f}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
        parts.append(f'<text x="{pad_left - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{_fmt(tick)}</text>')
    parts.append(f'<line x1="{pad_left}" y1="{pad_top + plot_h}" '
                 f'x2="{width - pad_right}" y2="{pad_top + plot_h}" '
                 f'stroke="var(--baseline)" stroke-width="1"/>')
    for index, label in enumerate(xlabels):
        parts.append(f'<text x="{sx(index):.1f}" '
                     f'y="{height - pad_bottom + 16}" '
                     f'text-anchor="middle">{html.escape(label)}</text>')
    if unit:
        parts.append(f'<text x="{pad_left - 6}" y="{pad_top - 1}" '
                     f'text-anchor="end">{html.escape(unit)}</text>')
    for row in series:
        color = row["color"]
        points = row["points"]
        for (x, point_low, point_high) in row.get("errors", []):
            parts.append(
                f'<line x1="{sx(x):.1f}" y1="{sy(point_low):.1f}" '
                f'x2="{sx(x):.1f}" y2="{sy(point_high):.1f}" '
                f'stroke="{color}" stroke-width="2" opacity="0.6"/>')
            for cap in (point_low, point_high):
                parts.append(
                    f'<line x1="{sx(x) - 4:.1f}" y1="{sy(cap):.1f}" '
                    f'x2="{sx(x) + 4:.1f}" y2="{sy(cap):.1f}" '
                    f'stroke="{color}" stroke-width="2" opacity="0.6"/>')
        if len(points) > 1:
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}"
                            for (x, y, _t) in points)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="2" '
                         f'stroke-linejoin="round"/>')
        for (x, y, tooltip) in points:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{html.escape(tooltip)}'
                f'</title></circle>')
        if points:
            x, y, _t = points[-1]
            parts.append(f'<text x="{sx(x) + 10:.1f}" y="{sy(y) + 4:.1f}" '
                         f'class="direct">{html.escape(row["name"])}'
                         f'</text>')
    parts.append("</svg>")
    return "".join(parts)


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    chips = "".join(
        f'<span><span class="chip" style="background:{color}"></span>'
        f'{html.escape(name)}</span>' for name, color in entries)
    return f'<div class="legend">{chips}</div>'


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def _section_speedup(data: Dict[str, Any]) -> str:
    revs = data["revisions"]
    rev_index = {rev: i for i, rev in enumerate(revs)}
    rows = [row for row in data["speedup_trend"]
            if row["rev"] in rev_index]
    points = [(rev_index[row["rev"]], row["speedup"],
               f"{row['rev']}: {row['speedup']}x vs cycle")
              for row in rows]
    chart = _line_chart(
        [{"name": "fast/cycle", "color": "var(--series-2)",
          "points": points}], revs, unit="x", y_zero=True)
    return (
        "<section><h2>Backend speedup</h2>"
        "<p class='caption'>Geomean fast-backend speedup over the "
        "cycle core in simulated instructions/s, from bench rows that "
        "pair within one revision (same benchmark, policy, budget, "
        "machine spec, and instruction count). Speed across revisions "
        "is measured by same-host pairs in <code>perfbench/</code>.</p>"
        f"{chart}</section>")


def _verdict_cell(text: str) -> str:
    if text == "closed":
        return '<td><span class="verdict-closed">&#10003; closed</span></td>'
    if text == "LEAKED":
        return ('<td><span class="verdict-leaked">&#10007; LEAKED</span>'
                "</td>")
    return f"<td class='empty'>{html.escape(text)}</td>"


def _section_verdicts(data: Dict[str, Any]) -> str:
    verdicts = data["verdicts"]
    if not verdicts:
        return ("<section><h2>Security verdicts</h2>"
                "<p class='empty'>no matrix or attack payloads ingested "
                "yet</p></section>")
    latest = list(verdicts)[-1]
    cells = verdicts[latest]
    attacks, policies = [], []
    for label in cells:
        attack, _, policy = label.rpartition("/")
        if attack not in attacks:
            attacks.append(attack)
        if policy not in policies:
            policies.append(policy)
    head = "".join(f"<th>{html.escape(p)}</th>" for p in policies)
    body = []
    for attack in attacks:
        row = "".join(
            _verdict_cell(cells.get(f"{attack}/{policy}", "&mdash;"))
            for policy in policies)
        body.append(f"<tr><td>{html.escape(attack)}</td>{row}</tr>")
    table = (f"<table><thead><tr><th>attack @ {html.escape(latest)}"
             f"</th>{head}</tr></thead><tbody>{''.join(body)}</tbody>"
             "</table>")
    deltas = []
    for delta in data["verdict_deltas"]:
        arrow = f"{html.escape(delta['from'])} &rarr; " \
                f"{html.escape(delta['to'])}"
        if not delta["changed"]:
            deltas.append(f"<li class='delta-none'>{arrow}: no verdict "
                          "changes</li>")
        else:
            changes = "; ".join(
                f"<code>{html.escape(c['cell'])}</code> "
                f"{html.escape(c['from'])} &rarr; {html.escape(c['to'])}"
                for c in delta["changed"])
            deltas.append(f"<li>{arrow}: {changes}</li>")
    delta_html = (f"<ul>{''.join(deltas)}</ul>" if deltas else
                  "<p class='empty'>only one revision carries verdicts "
                  "so far</p>")
    return (
        "<section><h2>Security verdicts</h2>"
        "<p class='caption'>The leak matrix at the newest ingested "
        "revision, and every cell that changed between adjacent "
        "revisions &mdash; the reproduction's claim is that this list "
        "stays empty while the performance trends move.</p>"
        f"{table}<h2 style='margin-top:14px'>Deltas</h2>{delta_html}"
        "</section>")


def _section_verify(data: Dict[str, Any]) -> str:
    revs = data["revisions"]
    rev_index = {rev: i for i, rev in enumerate(revs)}
    profiles = sorted(data["verify"])
    if not profiles:
        return ("<section><h2>Verify pass-rate by profile</h2>"
                "<p class='empty'>no verify payloads ingested yet</p>"
                "</section>")
    series = []
    for index, profile in enumerate(profiles):
        color = f"var(--series-{min(index, 2) + 1})"
        points = [(rev_index[row["rev"]], row["rate"],
                   f"{profile} @ {row['rev']}: "
                   f"{row['rate']:.1%} of {row['cases']} cases")
                  for row in data["verify"][profile]
                  if row["rev"] in rev_index]
        series.append({"name": profile, "color": color, "points": points})
    legend = _legend([(row["name"], row["color"]) for row in series]) \
        if len(series) > 1 else ""
    chart = _line_chart(series, revs, unit="pass rate", y_zero=True)
    return (
        "<section><h2>Verify pass-rate by profile</h2>"
        "<p class='caption'>Differential-verification pass rate "
        "(oracle + SafeSpec invariants) per fuzz profile.</p>"
        f"{legend}{chart}</section>")


def _section_sampled(data: Dict[str, Any]) -> str:
    revs = data["revisions"]
    rev_index = {rev: i for i, rev in enumerate(revs)}
    rows = data["sampled"]
    if not rows:
        return ("<section><h2>Sampled IPC</h2>"
                "<p class='empty'>no sample payloads ingested yet</p>"
                "</section>")
    labels = []
    for row in rows:
        if row["label"] not in labels:
            labels.append(row["label"])
    series = []
    for index, label in enumerate(labels):
        color = f"var(--series-{min(index, 2) + 1})"
        points, errors = [], []
        for row in rows:
            if row["label"] != label or row["rev"] not in rev_index:
                continue
            x = rev_index[row["rev"]]
            tip = f"{label} @ {row['rev']}: stitched {row['ipc']:.4f}"
            if row["ci95"]:
                tip += f" ± {row['ci95']:.4f}"
                errors.append((x, row["ipc"] - row["ci95"],
                               row["ipc"] + row["ci95"]))
            if row["error"] is not None:
                tip += (f"; full {row['full_ipc']:.4f} "
                        f"(err {row['error']:.2%})")
            points.append((x, row["ipc"], tip))
        series.append({"name": label, "color": color, "points": points,
                       "errors": errors})
    legend = _legend([(row["name"], row["color"]) for row in series]) \
        if len(series) > 1 else ""
    chart = _line_chart(series, revs, unit="IPC", error_key="errors")

    def _row_html(row: Dict[str, Any]) -> str:
        ci = "&plusmn;{:.4f}".format(row["ci95"]) if row["ci95"] \
            else "&mdash;"
        err = "{:.2%}".format(row["error"]) \
            if row["error"] is not None else "&mdash;"
        return ("<tr><td>{}</td><td>{}</td><td>{}</td>"
                "<td class='num'>{:.4f}</td><td class='num'>{}</td>"
                "<td class='num'>{}</td></tr>").format(
                    html.escape(row["rev"]), html.escape(row["label"]),
                    html.escape(row["backend"]), row["ipc"], ci, err)

    table_rows = "".join(_row_html(row) for row in rows)
    table = ("<table><thead><tr><th>rev</th><th>workload</th>"
             "<th>backend</th><th class='num'>stitched IPC</th>"
             "<th class='num'>95% CI</th><th class='num'>vs full</th>"
             "</tr></thead><tbody>" + table_rows + "</tbody></table>")
    return (
        "<section><h2>Sampled IPC</h2>"
        "<p class='caption'>SimPoint-style stitched IPC estimates with "
        "95% confidence bars; the error column compares against a "
        "full run ingested at the same revision.</p>"
        f"{legend}{chart}{table}</section>")


def _section_revisions(data: Dict[str, Any]) -> str:
    rows = []
    for entry in data["summary"]["revisions"]:
        commands = ", ".join(f"{name}&times;{count}" for name, count
                             in sorted(entry["commands"].items()))
        rows.append(f"<tr><td><code>{html.escape(entry['rev'])}</code>"
                    f"</td><td class='num'>{entry['points']}</td>"
                    f"<td>{commands}</td></tr>")
    return (
        "<section><h2>Ingested revisions</h2>"
        "<table><thead><tr><th>rev</th><th class='num'>points</th>"
        "<th>commands</th></tr></thead><tbody>"
        + "".join(rows) + "</tbody></table></section>")


# ---------------------------------------------------------------------------
# the document
# ---------------------------------------------------------------------------

def render_dashboard(store: TrajectoryStore,
                     title: str = "SafeSpec reproduction telemetry"
                     ) -> str:
    """The dashboard HTML for ``store``'s current contents."""
    data = collect_dashboard_data(store)
    summary = data["summary"]
    sections = [
        _section_speedup(data),
        _section_verdicts(data),
        _section_verify(data),
        _section_sampled(data),
        _section_revisions(data),
    ]
    embedded = html.escape(json.dumps(data, indent=1, sort_keys=True),
                           quote=False)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n<main>\n"
        f"<h1>{html.escape(title)}</h1>\n"
        f"<p class='subtitle'>{summary['points']} points across "
        f"{len(data['revisions'])} revisions, rebuilt offline from "
        f"{summary['sources']} committed artifacts &mdash; no network "
        "fetches.</p>\n"
        + "\n".join(sections)
        + "\n<footer>Data embedded below for audit; the table view of "
        "every chart.</footer>\n"
        '<script type="application/json" id="telemetry-data">\n'
        f"{embedded}\n</script>\n</main>\n</body>\n</html>\n")
