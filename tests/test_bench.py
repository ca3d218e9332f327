"""Tests for the repro.bench harness, comparator, and CLI gate."""

import copy
import json
import pickle

import pytest

from repro.bench import (BENCH_SCHEMA_VERSION, BenchHarness, BenchSpec,
                         QUICK_SPECS, annotate_calibration_drift,
                         compare_payloads, payload_fingerprint,
                         render_calibration_drift)
from repro.bench.harness import dump_payload, load_payload
from repro.core.policy import CommitPolicy
from repro.exec.executor import ParallelExecutor, SerialExecutor
from repro.exec.job import workload_job
from repro.isa.instructions import AluOp, Instruction, Opcode
from repro.memory.cache import Cache, CacheConfig
from repro.memory.tlb import TLB, TLBConfig
from repro.pipeline.uop import DynUop

TINY = BenchSpec(name="tiny_namd", benchmark="namd",
                 policy=CommitPolicy.WFC, instructions=200)


def run_tiny_harness():
    harness = BenchHarness(warmup=0, repeats=1, rev="test")
    return harness.run([TINY])


class TestHarness:
    def test_payload_shape_and_schema(self):
        payload = run_tiny_harness()
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["rev"] == "test"
        (row,) = payload["results"]
        assert row["name"] == "tiny_namd"
        assert row["cycles"] > 0
        assert row["cycles_per_sec"] > 0
        assert row["normalized_score"] > 0
        assert len(row["wall_s"]) == 1
        assert len(row["job_key"]) == 64

    def test_emitted_json_is_deterministic(self, tmp_path):
        """Two runs from the same tree agree on everything but timing,
        and the dumped JSON has stable, sorted keys."""
        first = run_tiny_harness()
        second = run_tiny_harness()
        assert payload_fingerprint(first) == payload_fingerprint(second)
        path = tmp_path / "bench.json"
        dump_payload(first, str(path))
        text = path.read_text()
        assert json.loads(text) == first
        # sort_keys: re-dumping the parsed payload reproduces the bytes.
        assert text == json.dumps(first, indent=2, sort_keys=True) + "\n"
        assert load_payload(str(path)) == first

    def test_job_key_matches_api_job(self):
        """The payload's job key is the repro.api content hash."""
        payload = run_tiny_harness()
        expected = workload_job("namd", CommitPolicy.WFC,
                                instructions=200).key()
        assert payload["results"][0]["job_key"] == expected

    def test_rejects_bad_repeat_counts(self):
        with pytest.raises(ValueError):
            BenchHarness(repeats=0)
        with pytest.raises(ValueError):
            BenchHarness(warmup=-1)

    def test_quick_specs_cover_fig11_policies(self):
        """The CI smoke set times the Figure 11 IPC pair."""
        policies = {spec.policy for spec in QUICK_SPECS}
        assert CommitPolicy.BASELINE in policies
        assert CommitPolicy.WFC in policies


def _payload(rows):
    return {"schema": BENCH_SCHEMA_VERSION, "rev": "x",
            "results": [dict(row) for row in rows]}


def _row(name, score, job_key="k", cycles=100):
    return {"name": name, "normalized_score": score,
            "cycles_per_sec": score * 1000.0, "job_key": job_key,
            "cycles": cycles}


class TestComparator:
    def test_identical_payloads_pass(self):
        payload = _payload([_row("a", 10.0), _row("b", 20.0)])
        report = compare_payloads(payload, copy.deepcopy(payload))
        assert report.passed
        assert len(report.deltas) == 2

    def test_small_slowdown_within_threshold_passes(self):
        base = _payload([_row("a", 10.0)])
        current = _payload([_row("a", 9.2)])
        assert compare_payloads(current, base, threshold=0.10).passed

    def test_regression_beyond_threshold_fails(self):
        base = _payload([_row("a", 10.0)])
        current = _payload([_row("a", 8.5)])
        report = compare_payloads(current, base, threshold=0.10)
        assert not report.passed
        (delta,) = report.regressions
        assert delta.name == "a"
        assert delta.ratio == pytest.approx(0.85)
        assert "REGRESSION" in report.render()

    def test_speedup_always_passes(self):
        base = _payload([_row("a", 10.0)])
        current = _payload([_row("a", 30.0)])
        assert compare_payloads(current, base).passed

    def test_disjoint_benches_reported_not_failed(self):
        base = _payload([_row("a", 10.0), _row("old", 5.0)])
        current = _payload([_row("a", 10.0), _row("new", 7.0)])
        report = compare_payloads(current, base)
        assert report.passed
        assert report.only_in_baseline == ["old"]
        assert report.only_in_current == ["new"]

    def test_changed_job_key_is_stale_not_a_regression(self):
        """A different job key means a different simulation: no speed
        verdict either way, even when the score ratio looks terrible."""
        base = _payload([_row("a", 10.0, job_key="old")])
        current = _payload([_row("a", 2.0, job_key="new")])
        report = compare_payloads(current, base)
        assert report.passed
        (delta,) = report.deltas
        assert delta.stale
        assert not delta.regression
        assert "STALE BASELINE" in report.render()
        assert any("job key changed" in note for note in delta.notes)

    def test_fast_backend_rows_are_not_speed_gated(self):
        """Fast-backend wall times are noise-dominated; their perf
        contract is the speedup gate, so a slow fast row never fails
        the row-by-row comparison..."""
        base = _payload([dict(_row("a_fast", 100.0), backend="fast")])
        current = _payload([dict(_row("a_fast", 60.0), backend="fast")])
        assert compare_payloads(current, base, threshold=0.10).passed

    def test_fast_backend_rows_still_fail_on_cycle_drift(self):
        """...but the simulated-cycles correctness check still applies
        to every row, whatever its backend."""
        base = _payload([dict(_row("a_fast", 100.0, cycles=100),
                              backend="fast")])
        current = _payload([dict(_row("a_fast", 100.0, cycles=101),
                                 backend="fast")])
        report = compare_payloads(current, base)
        assert not report.passed
        (delta,) = report.regressions
        assert any("semantics drifted" in note for note in delta.notes)

    def test_cycle_drift_under_same_key_fails_the_gate(self):
        """Same spec, different simulated cycles: semantics drifted
        without a schema bump — fails regardless of speed."""
        base = _payload([_row("a", 10.0, cycles=100)])
        current = _payload([_row("a", 30.0, cycles=101)])
        report = compare_payloads(current, base)
        assert not report.passed
        (delta,) = report.regressions
        assert any("semantics drifted" in note for note in delta.notes)

    def test_falls_back_to_raw_metric(self):
        base = _payload([{"name": "a", "cycles_per_sec": 1000.0,
                          "job_key": "k", "cycles": 1}])
        current = _payload([_row("a", 10.0)])
        report = compare_payloads(current, base)
        assert report.metric == "cycles_per_sec"

    def test_threshold_validation(self):
        payload = _payload([_row("a", 1.0)])
        with pytest.raises(ValueError):
            compare_payloads(payload, payload, threshold=0.0)


def _calibrated(kloops, rows=None):
    payload = _payload(rows or [_row("a", 10.0)])
    payload["calibration"] = {"loops": 1000, "kloops_per_sec": kloops}
    return payload


class TestCalibrationDrift:
    def test_within_threshold_not_flagged(self):
        current = _calibrated(105.0)
        report = annotate_calibration_drift(current, _calibrated(100.0))
        assert report["checked"] and not report["drifted"]
        assert current["calibration"]["drift_vs_baseline"] == \
            pytest.approx(0.05)
        assert current["results"][0]["calibration_drifted"] is False

    def test_drift_beyond_threshold_flags_payload_and_rows(self):
        current = _calibrated(125.0)
        report = annotate_calibration_drift(current, _calibrated(100.0))
        assert report["drifted"]
        assert current["calibration"]["drifted"] is True
        assert all(row["calibration_drifted"]
                   for row in current["results"])
        assert current["results"][0]["calibration_drift"] == \
            pytest.approx(0.25)
        assert "DRIFTED" in render_calibration_drift(report)

    def test_slower_host_drifts_too(self):
        report = annotate_calibration_drift(_calibrated(80.0),
                                            _calibrated(100.0))
        assert report["drifted"]
        assert report["drift"] == pytest.approx(-0.2)

    def test_no_baseline_is_unchecked(self):
        current = _calibrated(100.0)
        report = annotate_calibration_drift(current, None)
        assert not report["checked"] and not report["drifted"]
        assert "drift_vs_baseline" not in current["calibration"]
        assert "no baseline" in render_calibration_drift(report)

    def test_baseline_without_calibration_is_unchecked(self):
        # Pre-calibration payloads (schema 0) must not divide by zero.
        report = annotate_calibration_drift(
            _calibrated(100.0), _payload([_row("a", 10.0)]))
        assert not report["checked"]


class TestSlotsPickling:
    """The __slots__ additions must stay picklable: results (and any
    state they reference) cross the multiprocessing boundary in the
    parallel executor."""

    def test_dynuop_round_trips(self):
        inst = Instruction(opcode=Opcode.ALU, rd=1, rs1=2, rs2=3,
                           alu_op=AluOp.ADD)
        uop = DynUop(7, inst, 0x1000, 0, 3)
        uop.vaddr = 0x2000
        clone = pickle.loads(pickle.dumps(uop))
        assert clone.seq == 7
        assert clone.pc == 0x1000
        assert clone.vaddr == 0x2000
        assert clone.is_load is False
        assert clone.inst.inst_class is inst.inst_class
        assert clone.inst.fu_index == inst.fu_index

    def test_cache_and_tlb_round_trip(self):
        cache = Cache(CacheConfig("t", 1024, 2, 64, 1))
        cache.fill(0x40)
        cache.touch(0x40)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.contains(0x40)
        assert clone.hits == cache.hits
        tlb = TLB(TLBConfig("t", 4))
        clone_tlb = pickle.loads(pickle.dumps(tlb))
        assert clone_tlb.occupancy() == 0

    def test_parallel_executor_matches_serial(self):
        """End-to-end: slotted pipeline state survives the worker-process
        boundary and parallel results stay bit-identical to serial."""
        jobs = [workload_job("namd", CommitPolicy.WFC, instructions=300),
                workload_job("povray", CommitPolicy.BASELINE,
                             instructions=300)]
        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(workers=2).run(jobs)
        for s, p in zip(serial, parallel):
            assert s.to_dict() == p.to_dict()
