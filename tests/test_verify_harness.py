"""Tests for the differential/invariant verification harness."""

import json

import pytest

from repro_testlib import POLICIES
from repro.api.session import Session
from repro.cli import main
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.exec.executor import SerialExecutor, execute_job
from repro.exec.job import SimJob
from repro.verify import (FUZZ_FORMAT_VERSION, ReferenceOracle,
                          fuzz_profile, generate_fuzz_program,
                          run_verify_job, verdict_from_sim, verify_case,
                          verify_job)


@pytest.fixture(autouse=True)
def _fresh_reference_memo(monkeypatch):
    """Each test starts with an empty per-process seed memo, so a test
    that patches the oracle is never served a reference another test
    memoised."""
    import repro.verify.harness as harness

    monkeypatch.setattr(harness, "_REFERENCE_MEMO", {})


class TestVerifyCase:
    def test_single_case_passes_under_all_policies(self):
        case = generate_fuzz_program(fuzz_profile("mixed"), 0)
        for policy in POLICIES:
            verdict = verify_case(case, policy)
            assert verdict.ok, (verdict.mismatches
                                + verdict.invariant_failures)
            assert verdict.instructions > 0
            assert verdict.policy is policy

    def test_corrupted_oracle_caught_as_mismatch(self, monkeypatch):
        """A deliberately wrong golden state must be flagged, proving
        the comparison actually bites."""
        case = generate_fuzz_program(fuzz_profile("mixed"), 1)
        original = ReferenceOracle.run

        def corrupted(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            registers = list(result.registers)
            registers[5] ^= 0xDEAD            # flip an untainted register
            result.registers = tuple(registers)
            return result

        monkeypatch.setattr(ReferenceOracle, "run", corrupted)
        verdict = verify_case(case, CommitPolicy.BASELINE)
        assert not verdict.ok
        assert any("r5" in m for m in verdict.mismatches)

    def test_corrupted_machine_memory_caught(self, monkeypatch):
        """Divergence in the final memory image is also flagged."""
        case = generate_fuzz_program(fuzz_profile("mixed"), 2)
        from repro.machine import Machine

        original = Machine.run

        def tampering(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            self.hierarchy.memory.write_word(case.data_base, 0xBAD)
            return result

        monkeypatch.setattr(Machine, "run", tampering)
        verdict = verify_case(case, CommitPolicy.BASELINE)
        assert not verdict.ok
        assert any("mem[" in m for m in verdict.mismatches)

    def test_invariant_failure_reported(self, monkeypatch):
        """A fabricated residual shadow entry must fail the leakage
        invariant."""
        from repro.core.safespec import SafeSpecEngine

        case = generate_fuzz_program(fuzz_profile("mixed"), 3)
        original = SafeSpecEngine.invariant_stats

        def leaky(self):
            stats = original(self)
            stats["shadow_dcache"]["residual"] = 1
            return stats

        monkeypatch.setattr(SafeSpecEngine, "invariant_stats", leaky)
        verdict = verify_case(case, CommitPolicy.WFC)
        assert not verdict.ok
        assert any("survived" in f for f in verdict.invariant_failures)


def _fault_hole_machine(policy, backend):
    """A user load of a supervisor page (faults at commit) with an
    independent transmit load behind it, run once."""
    from repro import ProgramBuilder
    from repro.machine import Machine

    machine = Machine.from_spec(policy=policy, backend=backend)
    machine.map_user_range(0x20000, 4096)
    machine.map_kernel_range(0x80000, 4096)
    b = ProgramBuilder()
    b.li("r1", 0x80000)
    b.load("r2", "r1", 0)         # faults at commit
    b.li("r3", 0x20000)
    b.load("r4", "r3", 256)       # dependent-window transmit access
    b.halt()
    machine.run(b.build())
    return machine


@pytest.mark.parametrize("backend", ["cycle", "fast"])
class TestInvariantSurface:
    def test_engine_stats_shape(self, backend):
        case = generate_fuzz_program(fuzz_profile("mixed"), 0)
        from repro.machine import Machine

        machine = Machine.from_spec(policy=CommitPolicy.WFC, backend=backend)
        case.apply_memory_image(machine)
        machine.run(case.program, fault_handler_pc=case.fault_handler_pc)
        stats = machine.engine.invariant_stats()
        for name in ("shadow_dcache", "shadow_icache", "shadow_itlb",
                     "shadow_dtlb"):
            row = stats[name]
            assert row["residual"] == 0
            assert row["fills"] == row["committed"] + row["annulled"]
            assert row["fills"] > 0
        assert stats["engine"]["promoted_then_squashed"] == 0

    def test_wfb_fault_hole_is_visible(self, backend):
        """Under WFB a faulting load's dependents promote before the
        squash — the paper's Meltdown hole — and the new counter
        exposes exactly that."""
        machine = _fault_hole_machine(CommitPolicy.WFB, backend)
        # Everything the fault squashes was promoted first: on the cycle
        # core the faulting load and the three micro-ops behind it; on
        # the fast backend the faulting load and the window's three
        # owned accesses (two instruction lines and the transmit load).
        assert machine.engine.promoted_then_squashed == 4

    def test_wfc_closes_the_fault_hole(self, backend):
        """The same program under WFC promotes nothing it squashes."""
        machine = _fault_hole_machine(CommitPolicy.WFC, backend)
        assert machine.engine.promoted_then_squashed == 0
        assert machine.engine.promotions > 0


class TestVerifyJobs:
    def test_job_key_is_deterministic(self):
        a = verify_job(3, CommitPolicy.WFC)
        b = verify_job(3, CommitPolicy.WFC)
        assert a.key() == b.key()
        assert a.key() != verify_job(4, CommitPolicy.WFC).key()
        assert a.key() != verify_job(3, CommitPolicy.WFB).key()

    def test_unknown_profile_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            verify_job(0, CommitPolicy.WFC, profile="nope")

    def test_non_verify_job_rejected(self):
        job = SimJob(kind="workload", target="namd")
        with pytest.raises(ConfigError):
            run_verify_job(job)

    def test_foreign_fuzz_version_rejected(self):
        job = SimJob(kind="verify", target="mixed-0",
                     params={"seed": 0, "profile": "mixed",
                             "fuzz_version": FUZZ_FORMAT_VERSION + 1})
        with pytest.raises(ConfigError):
            run_verify_job(job)

    def test_execute_job_dispatches_verify(self):
        result = execute_job(verify_job(0, CommitPolicy.BASELINE))
        assert result.kind == "verify"
        assert result.details["ok"] is True
        verdict = verdict_from_sim(result)
        assert verdict.ok and verdict.seed == 0

    def test_results_cache_and_replay(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        executor = SerialExecutor(cache=cache)
        jobs = [verify_job(s, CommitPolicy.WFC) for s in range(2)]
        first = executor.run(jobs)
        second = executor.run(jobs)
        assert all(not r.from_cache for r in first)
        assert all(r.from_cache for r in second)
        assert [r.details for r in first] == [r.details for r in second]


class TestSessionVerify:
    def test_report_aggregates_and_orders(self):
        report = Session(cache=False).verify(count=2, seed=0)
        assert len(report.verdicts) == 2 * len(POLICIES)
        assert report.ok and report.failures == 0
        assert [v.seed for v in report.verdicts] == [0, 0, 0, 1, 1, 1]
        payload = report.to_payload()
        assert payload["passed"] == payload["cases"]

    def test_payload_deterministic_across_sessions(self):
        first = Session(cache=False).verify(count=2, seed=7)
        second = Session(cache=False).verify(count=2, seed=7)
        assert first.to_payload() == second.to_payload()

    def test_parallel_session_matches_serial(self):
        serial = Session(cache=False).verify(count=2, seed=3)
        parallel = Session(cache=False, jobs=2).verify(count=2, seed=3)
        assert serial.to_payload() == parallel.to_payload()

    def test_count_validated(self):
        with pytest.raises(ConfigError):
            Session(cache=False).verify(count=0)

    def test_single_policy_subset(self):
        report = Session(cache=False).verify(
            count=1, seed=0, policies=[CommitPolicy.WFC])
        assert len(report.verdicts) == 1
        assert report.verdicts[0].policy is CommitPolicy.WFC


class TestSeedReferenceMemo:
    """A seed's fuzz program and oracle run are shared by its policy
    jobs and by a later batch over the same seeds; the memo changes no
    verdict."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts fuzz-program generations and oracle runs."""
        import repro.verify.harness as harness

        calls = {"generate": 0, "oracle": 0}
        generate = harness.generate_fuzz_program
        oracle_run = ReferenceOracle.run

        def counting_generate(*args, **kwargs):
            calls["generate"] += 1
            return generate(*args, **kwargs)

        def counting_run(self, *args, **kwargs):
            calls["oracle"] += 1
            return oracle_run(self, *args, **kwargs)

        monkeypatch.setattr(harness, "generate_fuzz_program",
                            counting_generate)
        monkeypatch.setattr(ReferenceOracle, "run", counting_run)
        return calls

    def test_one_generation_and_oracle_run_per_seed(self, calls):
        for policy in POLICIES:
            assert run_verify_job(verify_job(11, policy)).details["ok"]
        assert calls == {"generate": 1, "oracle": 1}

    def test_two_backend_batches_generate_each_seed_once(self, calls):
        session = Session(cache=False)
        for backend in ("cycle", "fast"):
            report = session.verify(count=4, seed=20, backend=backend)
            assert len(report.verdicts) == 4 * len(POLICIES)
            assert all(v.ok for v in report.verdicts)
        assert calls == {"generate": 4, "oracle": 4}

    def test_memo_is_bounded(self, calls):
        import repro.verify.harness as harness

        cap = harness._REFERENCE_MEMO_MAX
        for seed in range(cap + 2):
            run_verify_job(verify_job(seed, CommitPolicy.WFC,
                                      instructions=200))
        assert len(harness._REFERENCE_MEMO) == cap
        # The oldest seeds went first: seed 0 is generated again.
        run_verify_job(verify_job(0, CommitPolicy.WFC, instructions=200))
        assert calls["generate"] == cap + 3

    def test_payload_unchanged_with_memo_cleared_per_job(self, monkeypatch):
        import repro.verify.harness as harness

        memoised = Session(cache=False).verify(count=3, seed=5)
        run_job = harness.run_verify_job

        def fresh_run(job):
            harness._REFERENCE_MEMO.clear()
            return run_job(job)

        monkeypatch.setattr(harness, "run_verify_job", fresh_run)
        fresh = Session(cache=False).verify(count=3, seed=5)
        assert fresh.to_payload() == memoised.to_payload()


class TestAcceptance:
    """The PR's acceptance gate: 25 seeds under every policy on the
    default preset, via the real CLI, deterministically."""

    def test_verify_25_seeds_all_policies(self, capsys):
        assert main(["verify", "--count", "25", "--seed", "0",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["cases"] == 25 * 3
        assert payload["failures"] == 0
        assert all(v["ok"] for v in payload["verdicts"])
        # Second run (cache-served) must emit the identical document.
        assert main(["verify", "--count", "25", "--seed", "0",
                     "--format", "json"]) == 0
        again = json.loads(capsys.readouterr().out)["payload"]
        assert again == payload

    def test_cli_reports_failures_in_exit_code(self, capsys, monkeypatch):
        original = ReferenceOracle.run

        def corrupted(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            registers = list(result.registers)
            registers[4] ^= 1
            result.registers = tuple(registers)
            return result

        monkeypatch.setattr(ReferenceOracle, "run", corrupted)
        code = main(["verify", "--count", "1", "--seed", "0",
                     "--no-cache", "--policy", "baseline"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
