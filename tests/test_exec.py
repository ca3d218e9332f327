"""Tests for the simulation service layer (repro.exec)."""

import json
import pickle

import pytest

from repro.analysis.experiment import FigureRunner
from repro.cli import main
from repro.core.policy import CommitPolicy
from repro.core.safespec import SafeSpecConfig, SizingMode
from repro.errors import ConfigError
from repro.api.session import Session
from repro.exec import (Executor, NullCache, ResultCache, SimJob,
                        attack_job, workload_job)
from repro.isa.instructions import AluOp, Instruction, Opcode
from repro.memory.cache import Cache, CacheConfig
from repro.memory.tlb import TLB, TLBConfig
from repro.pipeline.uop import DynUop
from repro.spec import MachineSpec

# Small budget: every simulation here exists to exercise the transport,
# not the micro-architecture.
BUDGET = 1200


class TestJobHashing:
    def test_same_spec_same_key(self):
        first = workload_job("namd", CommitPolicy.WFC, instructions=BUDGET)
        second = workload_job("namd", CommitPolicy.WFC, instructions=BUDGET)
        assert first.key() == second.key()

    def test_budget_changes_key(self):
        base = workload_job("namd", CommitPolicy.WFC, instructions=BUDGET)
        more = workload_job("namd", CommitPolicy.WFC,
                            instructions=BUDGET + 1)
        assert base.key() != more.key()

    def test_policy_and_target_change_key(self):
        base = workload_job("namd", CommitPolicy.WFC, instructions=BUDGET)
        assert base.key() != workload_job(
            "namd", CommitPolicy.WFB, instructions=BUDGET).key()
        assert base.key() != workload_job(
            "povray", CommitPolicy.WFC, instructions=BUDGET).key()

    def test_config_override_changes_key(self):
        base = workload_job("namd", CommitPolicy.WFC, instructions=BUDGET)
        sized = workload_job(
            "namd", CommitPolicy.WFC, instructions=BUDGET,
            spec=MachineSpec(safespec=SafeSpecConfig(
                policy=CommitPolicy.WFC, sizing=SizingMode.CUSTOM,
                dcache_entries=8, icache_entries=8, itlb_entries=4,
                dtlb_entries=4)))
        assert base.key() != sized.key()

    def test_params_change_key(self):
        base = attack_job("spectre_v1", CommitPolicy.WFC, secret=42)
        assert base.key() != attack_job("spectre_v1", CommitPolicy.WFC,
                                        secret=7).key()

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            SimJob(kind="benchmark", target="namd")


class TestResultCache:
    def test_round_trip_skips_resimulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor(cache=cache)
        job = workload_job("namd", CommitPolicy.WFC, instructions=BUDGET)

        first = executor.run([job])[0]
        assert not first.from_cache
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)

        second = executor.run([job])[0]
        assert second.from_cache
        assert cache.hits == 1

        assert second.ipc == first.ipc
        assert second.counters == first.counters
        assert second.shadow_occupancy == first.shadow_occupancy
        for structure in ("shadow_dcache", "shadow_icache"):
            assert (second.shadow_size_percentile(structure)
                    == first.shadow_size_percentile(structure))
            assert (second.shadow_commit_rate(structure)
                    == first.shadow_commit_rate(structure))

    def test_changed_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor(cache=cache)
        executor.run([workload_job("namd", CommitPolicy.WFC,
                                   instructions=BUDGET)])
        rerun = executor.run([workload_job("namd", CommitPolicy.WFC,
                                           instructions=BUDGET + 100)])[0]
        assert not rerun.from_cache
        assert cache.misses == 2

    @pytest.mark.parametrize("garbage", ["{not json", "null", "[]",
                                         '"a string"', "{}"])
    def test_corrupt_entry_degrades_to_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        job = workload_job("namd", CommitPolicy.BASELINE,
                           instructions=BUDGET)
        Executor(cache=cache).run([job])
        cache.path_for(job).write_text(garbage)
        assert cache.get(job) is None

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        Executor(cache=cache).run(
            [workload_job("namd", CommitPolicy.BASELINE,
                          instructions=BUDGET)])
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_unwritable_location_degrades_to_warning(self, tmp_path,
                                                     capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker)
        result = Executor(cache=cache).run(
            [workload_job("namd", CommitPolicy.BASELINE,
                          instructions=BUDGET)])[0]
        assert result.cycles > 0          # the simulation still completed
        assert cache.stores == 0
        assert "result cache disabled" in capsys.readouterr().err

    def test_null_cache_never_hits(self):
        cache = NullCache()
        executor = Executor(cache=cache)
        job = workload_job("namd", CommitPolicy.BASELINE,
                           instructions=BUDGET)
        assert not executor.run([job])[0].from_cache
        assert not executor.run([job])[0].from_cache
        assert cache.hits == 0


class TestParallelExecutor:
    def test_matches_serial_on_small_suite(self):
        jobs = [workload_job(name, policy, instructions=BUDGET)
                for name in ("namd", "povray")
                for policy in (CommitPolicy.BASELINE, CommitPolicy.WFC)]
        serial = Executor().run(jobs)
        parallel = Executor(workers=4).run(jobs)
        assert len(parallel) == len(jobs)
        for expected, got in zip(serial, parallel):
            assert got.to_dict() == expected.to_dict()

    def test_attack_jobs_fan_out(self):
        jobs = [attack_job("spectre_v1", policy)
                for policy in (CommitPolicy.BASELINE, CommitPolicy.WFC)]
        results = Executor(workers=2).run(jobs)
        assert results[0].success and results[1].closed

    def test_progress_reports_every_job(self, tmp_path):
        seen = []
        cache = ResultCache(tmp_path)
        job = workload_job("namd", CommitPolicy.BASELINE,
                           instructions=BUDGET)
        executor = Executor(
            workers=2, cache=cache,
            progress=lambda done, total, j, r: seen.append(
                (done, total, r.from_cache)))
        executor.run([job])
        executor.run([job])
        assert seen == [(1, 1, False), (1, 1, True)]

    def test_rejects_zero_workers(self):
        for workers in (0, -1):
            with pytest.raises(ConfigError, match="workers must be >= 1"):
                Executor(workers=workers)


class TestOneWorker:
    def test_reports_each_job_in_submission_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [workload_job(name, CommitPolicy.BASELINE,
                             instructions=BUDGET)
                for name in ("namd", "povray", "mcf")]
        Executor(cache=cache).run(jobs[1:2])
        seen = []
        Executor(cache=cache, progress=lambda done, total, job, result:
                 seen.append((done, job.target, result.from_cache))
                 ).run(jobs)
        assert seen == [(1, "namd", False), (2, "povray", True),
                        (3, "mcf", False)]


class TestFigureRunnerBatching:
    def test_figure_methods_batch_their_sweep(self, monkeypatch):
        calls = []
        session = Session(cache=False)
        run = session.executor.run

        def recording_run(jobs):
            calls.append(len(jobs))
            return run(jobs)

        monkeypatch.setattr(session.executor, "run", recording_run)
        runner = FigureRunner(session, benchmarks=["namd", "povray"],
                              instructions=BUDGET)
        series = runner.normalized_ipc(CommitPolicy.WFC)
        assert set(series) == {"namd", "povray", "Average"}
        # Both policies x both benchmarks arrive as one 4-job batch,
        # and every later derivation is served from the memo.
        assert calls == [4]
        runner.dcache_miss_rates(CommitPolicy.WFC)
        runner.run_all([CommitPolicy.BASELINE, CommitPolicy.WFC])
        assert calls == [4]

    def test_workload_job_result_carries_the_job_key(self):
        from repro.workloads.suite import run_workload_job

        job = workload_job("povray", CommitPolicy.WFC, instructions=BUDGET,
                           backend="fast")
        assert run_workload_job(job).job_key == job.key()


class TestFiguresJson:
    def _figures(self, tmp_path, jobs="1"):
        return main(["figures", "--benchmarks", "namd",
                     "--instructions", str(BUDGET),
                     "--format", "json", "--jobs", jobs,
                     "--cache-dir", str(tmp_path)])

    def test_schema(self, tmp_path, capsys):
        assert self._figures(tmp_path) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["command"] == "figures"
        payload = envelope["payload"]
        assert payload["benchmarks"] == ["namd"]
        assert set(payload["figures"]) == {"6", "7", "8", "9", "11", "12",
                                           "13", "14", "15", "16"}
        for figure in payload["figures"].values():
            assert "title" in figure
            for series in figure["series"].values():
                assert set(series) == {"namd", "Average"}
        assert payload["figures"]["12"]["series"].keys() == {"wfc",
                                                             "baseline"}

    def test_second_invocation_is_all_cache_hits(self, tmp_path, capsys):
        assert self._figures(tmp_path) == 0
        first = json.loads(capsys.readouterr().out)["payload"]
        assert first["cache"] == {"hits": 0, "misses": 3}
        assert self._figures(tmp_path) == 0
        second = json.loads(capsys.readouterr().out)["payload"]
        # One benchmark x three policies, all reused — zero re-simulations.
        assert second["cache"] == {"hits": 3, "misses": 0}
        assert second["figures"] == first["figures"]


class TestAttackExitCode:
    def test_protected_policies_closed_exits_zero(self):
        assert main(["attack", "spectre_v1"]) == 0

    def test_wfb_meltdown_leak_is_paper_expected(self, capsys):
        # Table III: WFB does NOT close Meltdown — the leak under wfb is
        # the correct reproduction and must not fail the run.
        assert main(["attack", "meltdown"]) == 0
        out = capsys.readouterr().out
        assert "under wfb" in out and "LEAKED" in out

    def test_protected_leak_counts_as_failure(self, monkeypatch, capsys):
        from repro.attacks.runner import AttackResult

        def leaky(name, policy, secret, spec=None, backend="cycle"):
            return AttackResult(attack=name, policy=policy, secret=secret,
                                leaked=secret)

        # The attack command now routes through Session -> executor ->
        # run_attack_job, whose seam is the by-name runner; --no-cache
        # keeps earlier (real) results from masking the stub.
        monkeypatch.setattr("repro.attacks.runner.run_attack_by_name",
                            leaky)
        # Leaks under wfb and wfc are failures; the baseline leak is the
        # expected vulnerable behaviour and does not count.
        assert main(["attack", "spectre_v1", "--no-cache"]) == 2
        assert capsys.readouterr().out.count("LEAKED") == 3


class TestSlotsPickling:
    """The __slots__ additions must stay picklable: results (and any
    state they reference) cross the multiprocessing boundary when the
    executor runs more than one worker."""

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
        cache.fill(0x80)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.contains(0x40)
        assert clone.probe_set(0x40) == cache.probe_set(0x40)
        assert clone.stats.as_dict() == cache.stats.as_dict()
        tlb = TLB(TLBConfig("t", 4))
        clone_tlb = pickle.loads(pickle.dumps(tlb))
        assert clone_tlb.occupancy() == 0

    def test_parallel_executor_matches_serial(self):
        """End-to-end: slotted pipeline state survives the worker-process
        boundary and parallel results stay bit-identical to serial."""
        jobs = [workload_job("namd", CommitPolicy.WFC, instructions=300),
                workload_job("povray", CommitPolicy.BASELINE,
                             instructions=300)]
        serial = Executor().run(jobs)
        parallel = Executor(workers=2).run(jobs)
        for s, p in zip(serial, parallel):
            assert s.to_dict() == p.to_dict()
