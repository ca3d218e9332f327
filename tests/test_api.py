"""Tests for the unified public API (repro.api).

Covers the component registries (registration, lookup, duplicate and
unknown-name errors, expected-closed metadata), the validating job
constructors and sweep grids (stable expansion order, deterministic job keys), the
Session facade (cache-hit accounting over a spec-variant sweep), the
schema-v2 params migration, and the ``attack --format json`` schema.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Session, Sweep
from repro.api.registry import (ATTACKS, PREDICTORS, WORKLOADS, Registry,
                                attack_names, expected_closed)
from repro.cli import main
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.exec.job import SCHEMA_VERSION, attack_job, workload_job
from repro.machine import Machine
from repro.pipeline.config import CoreConfig
from repro.spec import MachineSpec
from repro.workloads import suite_names

BUDGET = 1200

BASELINE = CommitPolicy.BASELINE
WFB = CommitPolicy.WFB
WFC = CommitPolicy.WFC


class TestRegistry:
    def test_register_and_lookup(self):
        registry = Registry("widget")
        @registry.register("alpha", colour="red")
        def make_alpha():
            return "alpha!"
        assert registry.get("alpha") is make_alpha
        assert registry.metadata("alpha") == {"colour": "red"}
        assert registry.names() == ["alpha"]
        assert "alpha" in registry and len(registry) == 1

    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.add("alpha", 1)
        with pytest.raises(ConfigError, match="already registered"):
            registry.add("alpha", 2)

    def test_unknown_name_error_lists_registered(self):
        registry = Registry("widget")
        registry.add("alpha", 1)
        registry.add("beta", 2)
        with pytest.raises(ConfigError, match="alpha, beta"):
            registry.get("gamma")

    def test_attack_registry_preserves_table_order(self):
        assert attack_names() == [
            "spectre_v1", "spectre_v1_pp", "spectre_v2", "meltdown",
            "meltdown_spectre", "icache", "itlb", "dtlb", "transient",
            "ret2spec", "spectre_rsb", "spectre_v2_bhb", "ssb_v4"]

    def test_expected_closed_from_metadata(self):
        # Meltdown is the branch-free special case: only WFC closes it.
        assert not expected_closed("meltdown", WFB)
        assert expected_closed("meltdown", WFC)
        # ...as is speculative store bypass: no branch anywhere, so WFB
        # promotes the in-flight accesses and only WFC closes it.
        assert not expected_closed("ssb_v4", WFB)
        assert expected_closed("ssb_v4", WFC)
        # The RSB and BHB families ride control-flow misprediction.
        for name in ("ret2spec", "spectre_rsb", "spectre_v2_bhb"):
            assert expected_closed(name, WFB)
            assert expected_closed(name, WFC)
        # Everything else rides a branch misprediction.
        assert expected_closed("spectre_v1", WFB)
        assert expected_closed("spectre_v1", WFC)
        assert not expected_closed("spectre_v1", BASELINE)

    def test_workload_registry_is_the_suite(self):
        assert WORKLOADS.names() == suite_names()
        assert WORKLOADS.get("mcf").name == "mcf"

    def test_predictor_registry_drives_machine_dispatch(self):
        assert set(PREDICTORS.names()) >= {
            "bimodal", "gshare", "tage", "perceptron"}
        with pytest.raises(ConfigError) as excinfo:
            Machine(predictor="neural9000")
        # The error enumerates the registered names dynamically.
        for name in PREDICTORS.names():
            assert name in str(excinfo.value)

    def test_attack_lookup_validates(self):
        with pytest.raises(ConfigError, match="unknown attack"):
            ATTACKS.get("rowhammer")

    def test_failed_loader_is_retried_not_cached(self):
        calls = []

        def flaky_loader():
            calls.append(True)
            if len(calls) == 1:
                raise RuntimeError("transient import failure")
            registry.add("alpha", 1)

        registry = Registry("widget", loader=flaky_loader)
        with pytest.raises(RuntimeError):
            registry.names()
        # The failure must not leave the registry silently half-loaded.
        assert registry.names() == ["alpha"]
        assert len(calls) == 2

    def test_loader_retry_tolerates_surviving_registrations(self):
        # A loader that registered something and then failed (the
        # Python import system keeps successfully-executed modules
        # around) must be retryable: the re-add replaces the stale
        # entry instead of raising a duplicate error that would mask
        # the original failure forever.
        calls = []

        def flaky_loader():
            calls.append(True)
            registry.add("alpha", len(calls))
            if len(calls) == 1:
                raise RuntimeError("failed after registering alpha")
            registry.add("beta", "fresh")

        registry = Registry("widget", loader=flaky_loader)
        with pytest.raises(RuntimeError):
            registry.names()
        assert registry.names() == ["alpha", "beta"]
        assert registry.get("alpha") == 2      # replaced, not duplicated

    def test_duplicate_within_one_load_still_rejected(self):
        def clashing_loader():
            registry.add("alpha", 1)
            registry.add("alpha", 2)

        registry = Registry("widget", loader=clashing_loader)
        with pytest.raises(ConfigError, match="already registered"):
            registry.names()

    def test_api_first_import_path_matches_package_first(self):
        # Regression: populating the registry through repro.api *before*
        # repro.attacks has ever been imported must produce the same
        # catalogue as importing the attacks package directly — a fresh
        # interpreter is the only way to control the import order.
        import repro

        src = str(Path(repro.__file__).parents[1])
        expected = ("spectre_v1", "spectre_v1_pp", "spectre_v2",
                    "meltdown", "meltdown_spectre", "icache", "itlb",
                    "dtlb", "transient", "ret2spec", "spectre_rsb",
                    "spectre_v2_bhb", "ssb_v4")
        code = (
            "from repro.api.registry import attack_names\n"
            "names = tuple(attack_names())\n"
            "import repro.attacks\n"
            f"assert names == {expected!r}, names\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestJobConstructors:
    def test_attack_folds_secret_into_params(self):
        job = attack_job("meltdown", WFC, secret=7)
        assert job.params == {"secret": 7, "backend": "cycle"}
        assert job.canonical()["params"] == {"secret": 7, "backend": "cycle"}

    def test_unknown_targets_fail_at_construction(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            workload_job("spacetruck", WFC)
        with pytest.raises(ConfigError, match="unknown attack"):
            attack_job("rowhammer", WFC)
        with pytest.raises(ConfigError, match="unknown backend"):
            workload_job("namd", WFC, backend="warp")
        with pytest.raises(ConfigError, match="unknown backend"):
            attack_job("meltdown", WFC, backend="warp")


class TestSchemaV6:
    def test_schema_bumped(self):
        # v7: every job carries a MachineSpec and its key folds in the
        # spec digest, so every v6 key names a different job content.
        assert SCHEMA_VERSION == 7

    def test_spec_is_kind_uniform(self):
        # v1 special-cased a per-kind ``secret`` column; v2 carries one
        # generic params dict for every kind.
        workload_spec = workload_job("namd", WFC,
                                     instructions=BUDGET).canonical()
        attack_spec = attack_job("meltdown", WFC).canonical()
        assert "secret" not in workload_spec
        assert "secret" not in attack_spec
        assert workload_spec["params"] == {"backend": "cycle"}
        assert attack_spec["params"] == {"secret": 42, "backend": "cycle"}

    def test_old_entries_are_not_served_for_new_jobs(self, tmp_path):
        job = workload_job("namd", BASELINE, instructions=BUDGET)
        cache = ResultCache(tmp_path)
        assert cache.directory == tmp_path / f"v{SCHEMA_VERSION}"
        # An old-era entry — same key file name, old namespace directory.
        v1_dir = tmp_path / "v1"
        v1_dir.mkdir()
        result = Session(cache=False).run([job])[0]
        (v1_dir / f"{job.key()}.json").write_text(
            json.dumps(result.to_dict()))
        assert cache.get(job) is None          # namespaced away: a miss
        assert cache.misses == 1

    def test_jobs_stay_hashable(self):
        # The dict-valued params field must not break the frozen
        # dataclass hash (jobs are natural set members / dict keys).
        job = attack_job("spectre_v1", WFC, secret=7)
        twin = attack_job("spectre_v1", WFC, secret=7)
        assert hash(job) == hash(twin)
        assert job == twin
        assert len({job, twin}) == 1
        assert job != attack_job("spectre_v1", WFC, secret=8)

    def test_session_run_caches_under_current_schema(self, tmp_path):
        job = workload_job("namd", BASELINE, instructions=BUDGET)
        session = Session(cache_dir=tmp_path)
        session.run([job])
        assert (tmp_path / f"v{SCHEMA_VERSION}"
                / f"{job.key()}.json").exists()


class TestSweep:
    def variants(self):
        return {f"rob{n}": {"core.rob_entries": n} for n in (96, 128)}

    def test_expansion_order_and_size(self):
        sweep = Sweep(benchmarks=["namd", "povray"],
                      policies=[BASELINE, WFC],
                      instructions=BUDGET, variants=self.variants())
        assert len(sweep) == 8
        points = sweep.points()
        # benchmark-major, then policy, then variant — all input order.
        assert [(p.benchmark, p.policy, p.variant) for p in points[:4]] == [
            ("namd", BASELINE, "rob96"), ("namd", BASELINE, "rob128"),
            ("namd", WFC, "rob96"), ("namd", WFC, "rob128")]

    def test_job_keys_are_deterministic(self):
        build = lambda: Sweep(benchmarks=["namd", "povray"],
                              policies=[BASELINE, WFC],
                              instructions=BUDGET,
                              variants=self.variants())
        first = [job.key() for job in build().jobs()]
        second = [job.key() for job in build().jobs()]
        assert first == second
        assert len(set(first)) == len(first)   # every cell distinct

    def test_variant_configs_reach_the_jobs(self):
        sweep = Sweep(benchmarks=["namd"], policies=[WFC],
                      instructions=BUDGET, variants=self.variants())
        jobs = sweep.jobs()
        assert [job.spec.core.rob_entries for job in jobs] == [96, 128]

    def test_default_variant_is_unmodified(self):
        sweep = Sweep(benchmarks=["namd"], policies=[BASELINE],
                      instructions=BUDGET)
        job, = sweep.jobs()
        assert job.spec == MachineSpec()
        assert sweep.points()[0].variant == "default"

    def test_dotted_cell_matches_derived_scenario(self):
        sweep = Sweep(benchmarks=["namd"], policies=[WFC],
                      instructions=BUDGET, variants=self.variants())
        derived = [workload_job(
            "namd", WFC, instructions=BUDGET,
            spec=MachineSpec().derive(**{"core.rob_entries": n}))
            for n in (96, 128)]
        assert [job.key() for job in sweep.jobs()] == \
            [job.key() for job in derived]

    def test_section_variant_matches_dotted_variant(self):
        section = Sweep(benchmarks=["namd"], policies=[WFC],
                        instructions=BUDGET,
                        variants={"rob96": {"core": CoreConfig(
                            rob_entries=96)}})
        dotted = Sweep(benchmarks=["namd"], policies=[WFC],
                       instructions=BUDGET,
                       variants={"rob96": {"core.rob_entries": 96}})
        assert section.jobs()[0].key() == dotted.jobs()[0].key()

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigError, match="at least one benchmark"):
            Sweep(benchmarks=[], policies=[BASELINE])
        with pytest.raises(ConfigError, match="at least one policy"):
            Sweep(benchmarks=["namd"], policies=[])
        with pytest.raises(ConfigError, match="unknown workload"):
            Sweep(benchmarks=["spacetruck"], policies=[BASELINE])
        # A variant key that is not a MachineSpec derive path fails
        # before any simulation.
        with pytest.raises(ConfigError, match="unknown spec path"):
            Sweep(benchmarks=["namd"], policies=[BASELINE],
                  variants={"bad": {"rob_entries": 96}})
        # An explicitly empty variants axis is a degenerate grid, not
        # an implicit request for the default variant.
        with pytest.raises(ConfigError, match="at least one variant"):
            Sweep(benchmarks=["namd"], policies=[BASELINE], variants={})


class TestSessionSweep:
    """The acceptance path: a config-override sweep, parallel + cached."""

    def _sweep(self):
        return Sweep(benchmarks=["namd"], policies=[BASELINE, WFC],
                     instructions=BUDGET,
                     variants={f"rob{n}": {"core.rob_entries": n}
                               for n in (96, 128)})

    def test_parallel_cached_rerun_is_all_hits(self, tmp_path):
        sweep = self._sweep()
        first = Session(jobs=2, cache_dir=tmp_path).sweep(sweep)
        assert len(first) == 4
        assert first.cached_count == 0
        assert all(r.cycles > 0 for r in first.results)

        session = Session(jobs=2, cache_dir=tmp_path)
        second = session.sweep(sweep)
        # Served entirely from cache: hit count equals job count.
        assert session.cache.hits == len(sweep)
        assert second.cached_count == len(sweep)
        assert [r.to_dict() for r in second.results] == \
            [r.to_dict() for r in first.results]

    def test_point_lookup(self, tmp_path):
        result = Session(cache_dir=tmp_path).sweep(self._sweep())
        cell = result.result("namd", WFC, "rob128")
        assert cell.policy is WFC
        with pytest.raises(ConfigError, match="no sweep point"):
            result.result("namd", WFB, "rob128")

    def test_session_matrix_subset(self):
        session = Session(cache=False)
        matrix = session.matrix(attacks=["spectre_v1"],
                                policies=[BASELINE, WFC])
        assert matrix["spectre_v1"]["baseline"].success
        assert matrix["spectre_v1"]["wfc"].closed


class TestAttackJsonCli:
    def test_schema(self, capsys):
        assert main(["attack", "meltdown", "--format", "json",
                     "--no-cache"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["command"] == "attack"
        payload = envelope["payload"]
        assert payload["failures"] == 0
        assert [r["policy"] for r in payload["results"]] == \
            ["baseline", "wfb", "wfc"]
        for record in payload["results"]:
            assert set(record) == {"attack", "policy", "secret", "leaked",
                                   "closed", "expected_closed",
                                   "unexpected_leak", "cached"}
        by_policy = {r["policy"]: r for r in payload["results"]}
        # Table III: the WFB leak is expected, hence not a failure.
        assert not by_policy["wfb"]["closed"]
        assert not by_policy["wfb"]["expected_closed"]
        assert not by_policy["wfb"]["unexpected_leak"]
        assert by_policy["wfc"]["closed"]

    def test_attack_gains_exec_flags(self, tmp_path, capsys):
        args = ["attack", "spectre_v1", "--policy", "wfc", "--jobs", "2",
                "--cache-dir", str(tmp_path), "--format", "json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)["payload"]
        assert [r["cached"] for r in first["results"]] == [False]
        assert main(args) == 0          # second run: served from cache
        second = json.loads(capsys.readouterr().out)["payload"]
        assert [r["cached"] for r in second["results"]] == [True]
        assert second["results"][0]["closed"]
