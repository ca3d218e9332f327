"""Tests for the repro.bench harness, comparator, and CLI gate."""

import copy
import json
import pickle
from pathlib import Path

import pytest

import repro.bench
from repro.bench import (BENCH_SCHEMA_VERSION, BenchHarness, BenchSpec,
                         QUICK_SPECS, compare_payloads, payload_fingerprint,
                         with_backend)
from repro.bench.harness import dump_payload, load_payload
from repro.core.policy import CommitPolicy
from repro.exec.executor import ParallelExecutor, SerialExecutor
from repro.exec.job import workload_job
from repro.isa.instructions import AluOp, Instruction, Opcode
from repro.memory.cache import Cache, CacheConfig
from repro.memory.tlb import TLB, TLBConfig
from repro.pipeline.uop import DynUop

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline.json"

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
        assert row["inst_per_sec"] == pytest.approx(
            row["sim_instructions"] / row["best_wall_s"], rel=1e-3)
        assert len(row["wall_s"]) == 1
        assert len(row["job_key"]) == 64
        # Nothing host-normalized: timing is raw wall-clock only.
        assert "calibration" not in payload
        assert not {"cycles_per_sec", "normalized_score",
                    "kloops_per_sec"} & set(row)

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


def _row(name, best_wall_s=1.0, job_key="k", cycles=100, **extra):
    return dict({"name": name, "job_key": job_key, "cycles": cycles,
                 "sim_instructions": 50, "best_wall_s": best_wall_s},
                **extra)


class TestComparator:
    def test_identical_payloads_pass(self):
        payload = _payload([_row("a"), _row("b")])
        report = compare_payloads(payload, copy.deepcopy(payload))
        assert report.passed
        assert len(report.deltas) == 2
        assert "verdict: PASS" in report.render()

    def test_fingerprint_baseline_is_enough(self):
        """The committed baseline is a timing-free fingerprint."""
        payload = _payload([_row("a"), _row("b", cycles=7)])
        assert compare_payloads(payload,
                                payload_fingerprint(payload)).passed

    def test_slowdown_never_fails(self):
        """Wall-clock is not compared against the baseline at all."""
        base = _payload([_row("a", best_wall_s=1.0)])
        current = _payload([_row("a", best_wall_s=10.0)])
        assert compare_payloads(current, base).passed

    def test_speedup_always_passes(self):
        base = _payload([_row("a", best_wall_s=1.0)])
        current = _payload([_row("a", best_wall_s=0.1)])
        assert compare_payloads(current, base).passed

    def test_disjoint_benches_reported_not_failed(self):
        base = _payload([_row("a"), _row("old")])
        current = _payload([_row("a"), _row("new")])
        report = compare_payloads(current, base)
        assert report.passed
        assert report.only_in_baseline == ["old"]
        assert report.only_in_current == ["new"]

    def test_changed_job_key_is_stale_not_a_regression(self):
        """A different job key means a different simulation: its cycles
        are not comparable, so a changed count does not fail."""
        base = _payload([_row("a", job_key="old", cycles=100)])
        current = _payload([_row("a", job_key="new", cycles=999)])
        report = compare_payloads(current, base)
        assert report.passed
        (delta,) = report.deltas
        assert delta.stale
        assert not delta.drifted
        assert "STALE BASELINE" in report.render()
        assert any("job key changed" in note for note in delta.notes)

    def test_fast_backend_rows_are_not_speed_gated(self):
        base = _payload([_row("a_fast", best_wall_s=0.01, backend="fast")])
        current = _payload([_row("a_fast", best_wall_s=0.05,
                                 backend="fast")])
        assert compare_payloads(current, base).passed

    def test_fast_backend_rows_still_fail_on_cycle_drift(self):
        """The simulated-cycles check applies to every row, whatever
        its backend."""
        base = _payload([_row("a_fast", cycles=100, backend="fast")])
        current = _payload([_row("a_fast", cycles=101, backend="fast")])
        report = compare_payloads(current, base)
        assert not report.passed
        (delta,) = report.failures
        assert any("semantics drifted" in note for note in delta.notes)

    def test_cycle_drift_under_same_key_fails_the_gate(self):
        """Same spec, different simulated cycles: semantics drifted
        without a schema bump — fails however fast the run was."""
        base = _payload([_row("a", cycles=100)])
        current = _payload([_row("a", best_wall_s=0.1, cycles=101)])
        report = compare_payloads(current, base)
        assert not report.passed
        (delta,) = report.failures
        assert any("semantics drifted" in note for note in delta.notes)
        assert "CYCLES DRIFTED" in report.render()
        assert "verdict: FAIL" in report.render()


class TestCommittedBaseline:
    """benchmarks/baseline.json must describe the code as it stands:
    checked without simulating, so a job-key change that forgets the
    baseline refresh fails here, not only in the CI bench job."""

    def test_baseline_is_a_fingerprint(self):
        baseline = load_payload(str(BASELINE))
        assert baseline["schema"] == BENCH_SCHEMA_VERSION
        assert baseline == payload_fingerprint(baseline)

    def test_rows_are_the_quick_set_on_both_backends(self):
        specs = [spec for backend in ("cycle", "fast")
                 for spec in with_backend(QUICK_SPECS, backend)]
        rows = load_payload(str(BASELINE))["results"]
        assert [row["name"] for row in rows] == \
            [spec.name for spec in specs]
        for row, spec in zip(rows, specs):
            assert row["job_key"] == spec.job().key(), spec.name
            assert row["sim_instructions"] == spec.instructions


class TestBenchCli:
    """`repro bench` end to end on a tiny spec set."""

    @pytest.fixture(autouse=True)
    def tiny_specs(self, monkeypatch):
        monkeypatch.setattr(repro.bench, "FULL_SPECS", (TINY,))

    def _bench(self, tmp_path, *extra):
        from repro.cli import main

        return main(["bench", "--no-cache", "--warmup", "0",
                     "--repeats", "1",
                     "--output", str(tmp_path / "bench.json"),
                     "--baseline", str(tmp_path / "baseline.json"),
                     *extra])

    def test_update_baseline_writes_the_fingerprint_then_passes(
            self, tmp_path, capsys):
        assert self._bench(tmp_path, "--update-baseline") == 0
        payload = load_payload(str(tmp_path / "bench.json"))
        assert load_payload(str(tmp_path / "baseline.json")) == \
            payload_fingerprint(payload)
        assert self._bench(tmp_path) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_min_speedup_without_pairs_says_why_and_fails(
            self, tmp_path, capsys):
        assert self._bench(tmp_path, "--min-speedup", "5") == 1
        out = capsys.readouterr().out
        assert "no backend pairs to compare" in out
        assert "speedup gate (>= 5.0x): FAIL" in out

    def test_both_backends_pair_within_the_run(self, tmp_path, capsys):
        assert self._bench(tmp_path, "--backend", "cycle,fast",
                           "--min-speedup", "0.01") == 0
        out = capsys.readouterr().out
        assert "tiny_namd_fast" in out and "PASS" in out


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
