"""Tests for repro.telemetry: store, ingesters, renderer, facades.

The ingester consumes every producer payload the repo emits, so the
suite doubles as the input-contract check for those producers, and
malformed or partial artifacts must *skip with a warning* rather than
raise.
"""

import json
import sqlite3
from pathlib import Path

import pytest

from repro.api.session import Session
from repro.exec.job import SCHEMA_VERSION
from repro.telemetry import (Telemetry, TrajectoryPoint, TrajectoryStore,
                             collect_dashboard_data, ingest_file,
                             ingest_payload, render_dashboard)
from repro.telemetry.store import enable_wal

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_SNAPSHOTS = sorted(REPO_ROOT.glob("BENCH_*.json"))


def envelope(command, payload, rev="deadbee"):
    """A CLI ``--format json`` envelope around ``payload``."""
    return {"schema_version": SCHEMA_VERSION, "rev": rev,
            "command": command, "payload": payload}


def make_point(rev="aaa1111", series="inst_per_sec", label="row",
               value=1.0, **kwargs):
    return TrajectoryPoint(rev=rev, schema_version=1, command="bench",
                           series=series, label=label, value=value,
                           **kwargs)


@pytest.fixture
def store(tmp_path):
    with TrajectoryStore(tmp_path / "t.sqlite") as s:
        yield s


class TestTrajectoryStore:
    def test_upsert_same_key_is_idempotent(self, store):
        store.upsert([make_point()])
        store.upsert([make_point()])
        assert len(store) == 1

    def test_upsert_replaces_value_in_place(self, store):
        store.upsert([make_point(value=1.0)])
        store.upsert([make_point(value=2.5)])
        (point,) = store.points()
        assert point.value == 2.5

    def test_key_fields_separate_points(self, store):
        store.upsert([make_point(backend="cycle"),
                      make_point(backend="fast"),
                      make_point(label="other")])
        assert len(store) == 3

    def test_meta_round_trips(self, store):
        store.upsert([make_point(meta={"job_key": "k", "cycles": 9})])
        (point,) = store.points()
        assert point.meta == {"job_key": "k", "cycles": 9}

    def test_unknown_revs_keep_first_ingest_order(self, store):
        store.upsert([make_point(rev="zzzzzzz")])
        store.upsert([make_point(rev="qqqqqqq")])
        assert store.revisions() == ["zzzzzzz", "qqqqqqq"]

    def test_committed_revs_sort_by_commit_order(self, store,
                                                 monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        # Ingested newest-first; revisions() must restore git order.
        store.upsert([make_point(rev="7e183f9"),
                      make_point(rev="e5b3600"),
                      make_point(rev="45c33dc")])
        assert store.revisions() == ["e5b3600", "45c33dc", "7e183f9"]

    def test_directory_argument_gets_default_filename(self, tmp_path):
        with TrajectoryStore(tmp_path) as s:
            s.upsert([make_point()])
            assert s.path.name == "telemetry.sqlite"

    def test_summary_counts_points_per_rev_and_command(self, store):
        store.upsert([make_point(), make_point(label="b")])
        summary = store.summary()
        assert summary["points"] == 2
        assert summary["revisions"][0]["commands"] == {"bench": 2}


@pytest.mark.skipif(len(BENCH_SNAPSHOTS) < 3,
                    reason="needs the committed BENCH_<rev>.json corpus")
class TestCommittedSnapshots:
    """The acceptance corpus: >=3 committed bench snapshots."""

    def test_every_snapshot_ingests(self, store):
        for path in BENCH_SNAPSHOTS:
            report = ingest_file(store, str(path))
            assert report.kind == "bench", report.warnings
            assert report.points > 0
        assert len(store.revisions()) >= 3

    def test_every_row_of_every_vintage_lands(self, store):
        """Schema-1 snapshots (with the retired calibration fields)
        still give one inst/s point per row, nothing skipped."""
        for path in BENCH_SNAPSHOTS:
            payload = json.loads(path.read_text())
            report = ingest_payload(store, payload, source=str(path))
            assert report.warnings == []
            assert report.points == len(payload["results"])
        rows = {(p.rev, p.label): p for p in
                store.points(command="bench", series="inst_per_sec")}
        for path in BENCH_SNAPSHOTS:
            payload = json.loads(path.read_text())
            for row in payload["results"]:
                point = rows[(payload["rev"], row["name"])]
                assert point.value == pytest.approx(
                    row["sim_instructions"] / row["best_wall_s"])

    def test_speedup_pairs_within_a_revision(self, store):
        """The dashboard's speedup is `repro bench`'s, per revision."""
        from repro.bench import backend_speedups

        for path in BENCH_SNAPSHOTS:
            ingest_file(store, str(path))
        trend = {row["rev"]: row["speedup"]
                 for row in collect_dashboard_data(store)["speedup_trend"]}
        for path in BENCH_SNAPSHOTS:
            payload = json.loads(path.read_text())
            report = backend_speedups(payload)
            if report["pairs"]:
                assert trend[payload["rev"]] == report["geomean"]
            else:
                assert payload["rev"] not in trend
        assert trend, "no committed snapshot pairs both backends"

    def test_reingest_is_idempotent(self, store):
        for path in BENCH_SNAPSHOTS:
            ingest_file(store, str(path))
        count = len(store)
        reports = [ingest_file(store, str(path))
                   for path in BENCH_SNAPSHOTS]
        assert len(store) == count
        assert all(not report.new_source for report in reports)

    def test_dashboard_references_every_rev(self, store, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        for path in BENCH_SNAPSHOTS:
            ingest_file(store, str(path))
        page = render_dashboard(store)
        for rev in store.revisions():
            assert rev in page
        # Offline by construction: nothing fetched from anywhere.
        assert "http://" not in page and "https://" not in page
        assert "<svg" in page

    def test_render_is_deterministic(self, store):
        for path in BENCH_SNAPSHOTS:
            ingest_file(store, str(path))
        assert render_dashboard(store) == render_dashboard(store)


class TestBenchIngest:
    def test_schema_2_payload_ingests_as_bench(self, store):
        from repro.bench import BENCH_SCHEMA_VERSION

        row = {"name": "namd_wfc_1000_fast", "backend": "fast",
               "benchmark": "namd", "policy": "wfc", "instructions": 1000,
               "machine_spec_digest": "d0", "job_key": "k", "cycles": 900,
               "sim_instructions": 1000, "wall_s": [0.01],
               "best_wall_s": 0.01, "median_wall_s": 0.01,
               "inst_per_sec": 100000.0}
        report = ingest_payload(store, {
            "schema": BENCH_SCHEMA_VERSION, "rev": "ccc0001",
            "warmup": 0, "repeats": 1, "results": [row],
            "cache": {"hits": 0, "misses": 0, "stores": 0}})
        assert report.kind == "bench" and report.warnings == []
        (point,) = store.points(command="bench")
        assert point.series == "inst_per_sec"
        assert point.backend == "fast"
        assert point.value == pytest.approx(100000.0)


class TestEnvelopeIngest:
    def test_verify_pass_rates_by_profile_and_policy(self, store):
        verdicts = [
            {"profile": "mixed", "policy": "wfc", "ok": True},
            {"profile": "mixed", "policy": "wfc", "ok": False},
            {"profile": "mixed", "policy": "wfb", "ok": True},
        ]
        report = ingest_payload(store, envelope("verify", {
            "profile": "mixed", "backend": "cycle", "cases": 3,
            "failures": 1, "verdicts": verdicts}))
        assert report.kind == "verify"
        rates = {p.label: p.value
                 for p in store.points(series="pass_rate")}
        assert rates["mixed/wfc"] == 0.5
        assert rates["mixed/wfb"] == 1.0
        assert rates["mixed"] == pytest.approx(2 / 3)

    def test_matrix_verdicts(self, store):
        report = ingest_payload(store, envelope("matrix", {
            "backend": "cycle",
            "matrix": {"spectre_v1": {
                "baseline": {"closed": False, "leaked": 42},
                "wfc": {"closed": True, "leaked": None}}}}))
        assert report.points == 2
        verdicts = {p.label: p.text for p in store.points(series="verdict")}
        assert verdicts["spectre_v1/baseline"] == "LEAKED"
        assert verdicts["spectre_v1/wfc"] == "closed"

    def test_attack_records_become_verdicts(self, store):
        ingest_payload(store, envelope("attack", {"results": [
            {"attack": "meltdown", "policy": "wfb", "secret": 42,
             "leaked": 42, "closed": False}], "failures": 0}))
        (point,) = store.points(series="verdict")
        assert point.label == "meltdown/wfb"
        assert point.text == "LEAKED"

    def test_sample_stitched_ipc_with_ci(self, store):
        ingest_payload(store, envelope("sample", {
            "target": "namd", "policy": "baseline", "backend": "cycle",
            "stitched_ipc": 0.82, "ipc_ci95": 0.04, "coverage": 0.16}))
        (point,) = store.points(command="sample")
        assert point.value == 0.82
        assert point.meta["ipc_ci95"] == 0.04

    def test_workload_runs_and_run_alias(self, store):
        body = {"policy": "baseline", "instructions": 4000,
                "backend": "cycle",
                "runs": [{"benchmark": "namd", "ipc": 0.9,
                          "cycles": 4444}]}
        assert ingest_payload(store, envelope("workload", body)).points == 1
        # The `run` alias lands under the same command (same points).
        assert ingest_payload(store, envelope("run", body)).points == 1
        assert len(store.points(command="workload")) == 1


class TestSkipWithWarning:
    def test_non_object_payload(self, store):
        report = ingest_payload(store, [1, 2, 3])
        assert report.skipped and report.warnings

    def test_unknown_envelope_command(self, store):
        report = ingest_payload(store, envelope("figures", {"x": 1}))
        assert report.skipped
        assert "no ingester" in report.warnings[0]

    def test_malformed_envelope_body(self, store):
        report = ingest_payload(
            store, envelope("verify", "not-an-object"))
        assert report.skipped
        assert "malformed" in report.warnings[0]

    def test_partial_verify_payload_keeps_headline(self, store):
        # No verdict list (an old producer): the cases/failures totals
        # still land as the per-profile headline.
        report = ingest_payload(store, envelope("verify", {
            "profile": "alu", "cases": 10, "failures": 2}))
        assert not report.skipped
        (point,) = store.points(series="pass_rate")
        assert point.label == "alu"
        assert point.value == pytest.approx(0.8)

    def test_malformed_bench_rows_skip_individually(self, store):
        payload = json.loads(BENCH_SNAPSHOTS[0].read_text())
        payload["results"][0] = {"name": "broken"}     # no metrics
        report = ingest_payload(store, payload)
        assert not report.skipped
        assert any("bench row skipped" in w for w in report.warnings)
        assert report.points > 0

    def test_unreadable_file(self, store, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        report = ingest_file(store, str(bad))
        assert report.skipped
        assert "unreadable" in report.warnings[0]
        assert len(store) == 0


class TestDashboardData:
    def _seed_two_revs(self, store):
        for rev, closed in (("aaa0001", True), ("aaa0002", False)):
            ingest_payload(store, envelope("matrix", {
                "backend": "cycle",
                "matrix": {"meltdown": {
                    "wfb": {"closed": closed, "leaked": None}}}},
                rev=rev))

    def test_verdict_delta_between_adjacent_revs(self, store):
        self._seed_two_revs(store)
        data = collect_dashboard_data(store)
        (delta,) = data["verdict_deltas"]
        assert delta["changed"] == [{"cell": "meltdown/wfb",
                                     "from": "closed", "to": "LEAKED"}]

    def test_delta_renders_into_html(self, store):
        self._seed_two_revs(store)
        page = render_dashboard(store)
        assert "LEAKED" in page and "aaa0002" in page

    def test_sampled_error_vs_full_run_at_same_rev(self, store):
        rev = "bbb0001"
        ingest_payload(store, envelope("workload", {
            "policy": "baseline", "backend": "cycle",
            "runs": [{"benchmark": "namd", "ipc": 1.0}]}, rev=rev))
        ingest_payload(store, envelope("sample", {
            "target": "namd", "policy": "baseline", "backend": "cycle",
            "stitched_ipc": 0.9, "ipc_ci95": 0.05}, rev=rev))
        data = collect_dashboard_data(store)
        (row,) = data["sampled"]
        assert row["full_ipc"] == 1.0
        assert row["error"] == pytest.approx(0.1)

    def test_empty_store_renders(self, store):
        page = render_dashboard(store)
        assert "<svg" in page or "no data" in page
        assert "http" not in page


class TestFacades:
    def test_session_telemetry_round_trip(self, tmp_path):
        telemetry = Session(cache=False).telemetry(
            str(tmp_path / "t.sqlite"))
        with telemetry:
            report = telemetry.ingest(
                envelope("sample", {"target": "mcf", "policy": "wfc",
                                    "stitched_ipc": 0.7}))
            assert report.kind == "sample"
            out = tmp_path / "dash.html"
            page = telemetry.render(out)
            assert out.read_text(encoding="utf-8") == page
            assert telemetry.summary()["points"] == 1

    def test_env_var_names_the_db(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_DB",
                           str(tmp_path / "via-env.sqlite"))
        with Telemetry() as telemetry:
            assert telemetry.store.path.name == "via-env.sqlite"


class TestTelemetryCLI:
    def test_ingest_render_show(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "t.sqlite")
        out = tmp_path / "dash.html"
        paths = [str(p) for p in BENCH_SNAPSHOTS]
        assert main(["telemetry", "ingest", "--db", db] + paths) == 0
        assert main(["telemetry", "render", "--db", db,
                     "-o", str(out)]) == 0
        assert out.exists()
        assert main(["telemetry", "show", "--db", db]) == 0
        shown = capsys.readouterr().out
        for path in BENCH_SNAPSHOTS:
            assert path.stem.split("_")[1] in shown

    def test_all_inputs_skipped_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code = main(["telemetry", "ingest",
                     "--db", str(tmp_path / "t.sqlite"), str(bad)])
        assert code == 1


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
