"""Tests for the declarative hardware-description API (repro.spec).

Covers the MachineSpec value semantics (round-trip, stable digests,
dotted-path derivation and its error paths, diff), the preset registry,
Machine.from_spec equivalence with the classic constructor, cache-key
separation per hardware shape, the Sweep/Session hardware axis
(the acceptance path), config validation satellites, and the CLI
surface (``repro specs``, ``repro run --preset`` byte-identity,
``--set`` parsing).
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Session, Sweep
from repro.cli import main
from repro.core.policy import CommitPolicy
from repro.core.safespec import SafeSpecConfig, SizingMode
from repro.core.shadow import FullPolicy
from repro.errors import ConfigError
from repro.exec.job import SCHEMA_VERSION, attack_job, workload_job
from repro.frontend.btb import BTBConfig
from repro.machine import Machine
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.tlb import TLBConfig
from repro.pipeline.config import CoreConfig
from repro.sample.driver import sample_job
from repro.sample.plan import SamplePlan
from repro.spec import (DEFAULT_SPEC, SPECS, MachineSpec,
                        derive_from_strings, get_spec, spec_names)
from repro.verify.harness import verify_job
from repro.workloads.generator import generate_program
from repro.workloads.profiles import profile_by_name

BUDGET = 1200

BASELINE = CommitPolicy.BASELINE
WFC = CommitPolicy.WFC


class TestRoundTrip:
    def test_default_round_trips(self):
        spec = MachineSpec()
        assert MachineSpec.from_dict(spec.to_dict()) == spec

    def test_every_preset_round_trips(self):
        for name in spec_names():
            spec = get_spec(name)
            rebuilt = MachineSpec.from_dict(spec.to_dict())
            assert rebuilt == spec, name
            assert rebuilt.digest() == spec.digest(), name

    def test_round_trip_through_json_text(self):
        # The transport the job params actually use.
        spec = get_spec("safespec-p9999")
        payload = json.loads(json.dumps(spec.to_dict()))
        assert MachineSpec.from_dict(payload) == spec

    def test_enums_serialize_as_values(self):
        spec = MachineSpec(safespec=SafeSpecConfig(
            policy=WFC, sizing=SizingMode.PERFORMANCE,
            full_policy=FullPolicy.BLOCK))
        payload = spec.to_dict()
        assert payload["safespec"]["policy"] == "wfc"
        assert payload["safespec"]["sizing"] == "performance"
        assert payload["safespec"]["full_policy"] == "block"
        assert MachineSpec.from_dict(payload).safespec.sizing \
            is SizingMode.PERFORMANCE

    def test_unknown_fields_rejected(self):
        payload = MachineSpec().to_dict()
        payload["core"]["warp_drive"] = 9
        with pytest.raises(ConfigError, match="warp_drive"):
            MachineSpec.from_dict(payload)

    def test_unknown_schema_rejected(self):
        payload = MachineSpec().to_dict()
        payload["spec_schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            MachineSpec.from_dict(payload)

    def test_specs_are_hashable_values(self):
        first = MachineSpec().derive(**{"core.rob_entries": 96})
        twin = MachineSpec().derive(**{"core.rob_entries": 96})
        assert first == twin
        assert hash(first) == hash(twin)
        assert len({first, twin}) == 1


class TestDigest:
    def test_equal_specs_equal_digests(self):
        assert MachineSpec().digest() == MachineSpec().digest()

    def test_derivation_changes_digest(self):
        base = MachineSpec()
        assert base.derive(**{"core.rob_entries": 96}).digest() \
            != base.digest()

    def test_absent_safespec_differs_from_default_safespec(self):
        assert MachineSpec().digest() \
            != MachineSpec(safespec=SafeSpecConfig()).digest()

    def test_digest_stable_across_process_restarts(self):
        # A digest computed in a fresh interpreter must match this
        # process's — the on-disk cache depends on it.
        import repro

        src = str(Path(repro.__file__).parents[1])
        code = ("from repro.spec import get_spec\n"
                "print(get_spec('little-core').digest())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env=env)
        assert out.stdout.strip() == get_spec("little-core").digest()


class TestDerive:
    def test_dotted_paths(self):
        spec = MachineSpec().derive(**{
            "core.rob_entries": 128,
            "hierarchy.l1d.size_bytes": 16 * 1024,
            "predictor": "gshare"})
        assert spec.core.rob_entries == 128
        assert spec.hierarchy.l1d.size_bytes == 16 * 1024
        assert spec.predictor == "gshare"
        # The base is untouched (specs are values).
        assert MachineSpec().core.rob_entries == 224

    def test_codependent_fields_apply_atomically(self):
        # rob < default iq would fail if overrides applied one by one.
        spec = MachineSpec().derive(**{"core.rob_entries": 64,
                                       "core.iq_entries": 64})
        assert spec.core.rob_entries == 64

    def test_whole_section_replacement(self):
        core = CoreConfig(rob_entries=96, iq_entries=48)
        spec = MachineSpec().derive(core=core)
        assert spec.core is core

    def test_safespec_autocreated_on_nested_derive(self):
        spec = MachineSpec().derive(**{"safespec.sizing": "performance"})
        assert spec.safespec is not None
        assert spec.safespec.sizing is SizingMode.PERFORMANCE

    def test_safespec_cleared_with_none(self):
        spec = get_spec("safespec-secure").derive(safespec=None)
        assert spec.safespec is None

    def test_enum_values_accepted_as_strings(self):
        spec = MachineSpec().derive(**{"safespec.full_policy": "block"})
        assert spec.safespec.full_policy is FullPolicy.BLOCK

    def test_unknown_path_lists_known_fields(self):
        with pytest.raises(ConfigError, match="rob_entries"):
            MachineSpec().derive(**{"core.robb_entries": 64})
        with pytest.raises(ConfigError, match="core, hierarchy"):
            MachineSpec().derive(**{"engine.rob": 64})

    def test_leaf_with_subfields_rejected(self):
        with pytest.raises(ConfigError, match="no sub-fields"):
            MachineSpec().derive(**{"predictor.depth": 2})

    def test_conflicting_overrides_rejected(self):
        with pytest.raises(ConfigError, match="conflicting"):
            MachineSpec().derive(**{"core": CoreConfig(),
                                    "core.rob_entries": 64})

    def test_config_invariants_still_enforced(self):
        with pytest.raises(ConfigError, match="ROB"):
            MachineSpec().derive(**{"core.rob_entries": 16})
        with pytest.raises(ConfigError, match="line size"):
            MachineSpec().derive(**{"hierarchy.l1d.line_bytes": 48})


class TestDeriveFromStrings:
    def test_int_hex_and_enum_coercion(self):
        spec = derive_from_strings(MachineSpec(), [
            "core.rob_entries=96",
            "hierarchy.l1d.size_bytes=0x4000",
            "safespec.sizing=performance"])
        assert spec.core.rob_entries == 96
        assert spec.hierarchy.l1d.size_bytes == 0x4000
        assert spec.safespec.sizing is SizingMode.PERFORMANCE

    def test_none_clears_optional_section(self):
        spec = derive_from_strings(get_spec("safespec-secure"),
                                   ["safespec=none"])
        assert spec.safespec is None

    def test_malformed_assignment(self):
        with pytest.raises(ConfigError, match="key=value"):
            derive_from_strings(MachineSpec(), ["core.rob_entries"])

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            derive_from_strings(MachineSpec(), ["core.rob_entries=lots"])

    def test_bad_enum_lists_choices(self):
        with pytest.raises(ConfigError, match="secure, performance"):
            derive_from_strings(MachineSpec(), ["safespec.sizing=big"])

    def test_section_assignment_rejected(self):
        with pytest.raises(ConfigError, match="config section"):
            derive_from_strings(MachineSpec(), ["core=small"])

    def test_none_rejected_for_required_fields(self):
        # 'none' may only clear Optional fields; a required int (or a
        # required section, which would silently fall back to defaults
        # under a different digest) is an error.
        with pytest.raises(ConfigError, match="required"):
            derive_from_strings(MachineSpec(), ["core.rob_entries=none"])
        with pytest.raises(ConfigError, match="required"):
            derive_from_strings(MachineSpec(), ["core=none"])
        # Optional leaves still clear fine.
        spec = derive_from_strings(
            get_spec("safespec-secure"),
            ["safespec.dcache_entries=none"])
        assert spec.safespec.dcache_entries is None

    def test_wrong_typed_values_raise_config_error(self):
        # Stringly-typed numbers must fail loudly as ConfigError, not
        # leak a TypeError out of a config's __post_init__.
        with pytest.raises(ConfigError, match="integer"):
            MachineSpec().derive(**{"core.rob_entries": "96"})
        with pytest.raises(ConfigError, match="string"):
            MachineSpec().derive(predictor=7)
        payload = MachineSpec().to_dict()
        payload["core"]["rob_entries"] = "224"
        with pytest.raises(ConfigError, match="integer"):
            MachineSpec.from_dict(payload)
        payload["core"]["rob_entries"] = None
        with pytest.raises(ConfigError, match="required"):
            MachineSpec.from_dict(payload)
        with pytest.raises(ConfigError, match="integer"):
            Sweep(benchmarks=["namd"], instructions=BUDGET,
                  variants={"bad": {"core.rob_entries": "96"}}).jobs()


class TestDiff:
    def test_equal_specs_empty_diff(self):
        assert MachineSpec().diff(MachineSpec()) == ""

    def test_lists_changed_paths(self):
        delta = MachineSpec().diff(
            MachineSpec().derive(**{"core.rob_entries": 64,
                                    "core.iq_entries": 32}))
        assert "core.rob_entries: 224 -> 64" in delta
        assert "core.iq_entries: 96 -> 32" in delta
        assert "hierarchy" not in delta

    def test_safespec_appearing(self):
        delta = MachineSpec().diff(get_spec("safespec-secure"))
        assert "safespec" in delta
        assert "(unset)" in delta or "None" in delta


class TestPresets:
    def test_catalogue(self):
        assert spec_names()[0] == DEFAULT_SPEC
        assert {"little-core", "big-core", "safespec-secure",
                "safespec-p9999"} <= set(spec_names())

    def test_default_preset_is_the_default_machine(self):
        assert get_spec(DEFAULT_SPEC) == MachineSpec()

    def test_descriptions_registered(self):
        for name in spec_names():
            assert SPECS.metadata(name).get("description"), name

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown spec"):
            get_spec("pentium-3")


class TestMachineFromSpec:
    def test_default_spec_matches_classic_constructor(self):
        # Same workload, same counters: the spec path builds the same
        # machine the loose-kwargs constructor always has.
        workload = generate_program(profile_by_name("namd"))
        runs = []
        for machine in (Machine(policy=WFC),
                        Machine.from_spec(MachineSpec(), policy=WFC)):
            workload.apply_memory_image(machine)
            runs.append(machine.run(workload.program,
                                    max_instructions=BUDGET))
        classic, via_spec = runs
        assert via_spec.cycles == classic.cycles
        assert via_spec.counters == classic.counters

    def test_policy_argument_wins_over_spec_safespec(self):
        machine = Machine.from_spec(get_spec("safespec-p9999"),
                                    policy=CommitPolicy.WFB)
        assert machine.policy is CommitPolicy.WFB
        assert machine.engine.config.policy is CommitPolicy.WFB
        assert machine.engine.config.sizing is SizingMode.PERFORMANCE

    def test_baseline_drops_safespec(self):
        machine = Machine.from_spec(get_spec("safespec-secure"),
                                    policy=BASELINE)
        assert machine.engine is None

    def test_policy_defaults_from_spec_safespec(self):
        assert Machine.from_spec(get_spec("safespec-secure")).policy is WFC
        assert Machine.from_spec(MachineSpec()).policy is BASELINE

    def test_btb_and_predictor_reach_the_machine(self):
        spec = get_spec("big-core").derive(predictor="gshare")
        machine = Machine.from_spec(spec)
        assert machine.btb.config.entries == 1024
        assert type(machine.predictor).__name__.lower().startswith("gshare")


class TestCacheKeySeparation:
    def test_same_job_two_specs_two_keys(self):
        little = workload_job("namd", WFC, instructions=BUDGET,
                              spec=get_spec("little-core"))
        big = workload_job("namd", WFC, instructions=BUDGET,
                           spec=get_spec("big-core"))
        assert little.key() != big.key()

    def test_default_machine_has_one_key(self):
        # No spec, MachineSpec() and the default preset describe one
        # machine, so every job kind gives them one cache entry.
        plan = SamplePlan(interval=1000, warmup=100, windows=2, window=200)
        builders = {
            "workload": lambda **spec: workload_job(
                "namd", WFC, instructions=BUDGET, **spec),
            "attack": lambda **spec: attack_job("meltdown", WFC, **spec),
            "verify": lambda **spec: verify_job(3, WFC, **spec),
            "sample": lambda **spec: sample_job(
                "namd", WFC, 1, plan, 4000, **spec),
        }
        for kind, build in builders.items():
            keys = {build().key(), build(spec=MachineSpec()).key(),
                    build(spec=get_spec(DEFAULT_SPEC)).key()}
            assert len(keys) == 1, kind
            assert build().key() != build(
                spec=get_spec("little-core")).key(), kind

    def test_spec_digest_travels_in_key(self):
        spec = get_spec("little-core")
        job = workload_job("namd", WFC, instructions=BUDGET, spec=spec)
        assert job.spec is spec
        assert job.canonical()["spec"] == spec.digest()
        assert "machine_spec" not in job.params

    def test_job_with_spec_survives_pickle(self):
        spec = get_spec("little-core").derive(**{"core.rob_entries": 48})
        job = workload_job("namd", WFC, instructions=BUDGET, spec=spec)
        copy = pickle.loads(pickle.dumps(job))
        assert copy == job
        assert copy.spec == spec
        assert copy.key() == job.key()


class TestSweepHardwareAxis:
    """The acceptance path: >= 2 presets end-to-end through Session."""

    def _sweep(self):
        return Sweep(benchmarks=["namd"], policies=[WFC],
                     instructions=BUDGET,
                     specs=["skylake-table1", "little-core"])

    def test_preset_axis_runs_end_to_end(self, tmp_path):
        sweep = self._sweep()
        assert len(sweep) == 2
        keys = [job.key() for job in sweep.jobs()]
        assert len(set(keys)) == len(keys)      # distinct cache keys

        session = Session(jobs=2, cache_dir=tmp_path)
        result = session.sweep(sweep)
        assert [point.spec for point, _ in result] == \
            ["skylake-table1", "little-core"]
        assert all(r.cycles > 0 for r in result.results)
        cell = result.result("namd", WFC, spec="little-core")
        assert cell.cycles > 0

        rerun = Session(jobs=2, cache_dir=tmp_path)
        second = rerun.sweep(self._sweep())
        assert rerun.cache.hits == len(sweep)
        assert second.cached_count == len(sweep)

    def test_spec_mapping_with_ad_hoc_specs(self):
        tiny = MachineSpec().derive(**{"core.rob_entries": 32,
                                       "core.iq_entries": 16})
        sweep = Sweep(benchmarks=["namd"], policies=[BASELINE],
                      instructions=BUDGET,
                      specs={"table1": MachineSpec(), "tiny": tiny})
        jobs = sweep.jobs()
        assert jobs[0].key() != jobs[1].key()
        assert jobs[1].spec == tiny

    def test_dotted_variants_compose_with_specs(self):
        sweep = Sweep(benchmarks=["namd"], policies=[BASELINE],
                      instructions=BUDGET,
                      specs=["little-core"],
                      variants={"rob32": {"core.rob_entries": 32},
                                "stock": {}})
        jobs = sweep.jobs()
        derived = jobs[0].spec
        assert derived.core.rob_entries == 32
        # non-overridden fields still come from the preset
        assert derived.core.fetch_width == 2
        assert jobs[1].spec == get_spec("little-core")

    def test_bad_axes_rejected(self):
        with pytest.raises(ConfigError, match="at least one spec"):
            Sweep(benchmarks=["namd"], specs=[])
        with pytest.raises(ConfigError, match="unknown spec"):
            Sweep(benchmarks=["namd"], specs=["pentium-3"])
        with pytest.raises(ConfigError, match="preset names"):
            Sweep(benchmarks=["namd"], specs=[MachineSpec()])
        with pytest.raises(ConfigError, match="MachineSpec"):
            Sweep(benchmarks=["namd"], specs={"x": "not-a-spec"})


class TestConfigValidation:
    """Satellite: geometry invariants raise ConfigError, not asserts."""

    def test_cache_line_size_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            CacheConfig("L1D", 32 * 1024, 8, line_bytes=48)

    def test_cache_size_positive_multiple_of_line(self):
        with pytest.raises(ConfigError, match="positive"):
            CacheConfig("L1D", 0, 8, 64)
        with pytest.raises(ConfigError, match="multiple"):
            CacheConfig("L1D", 100, 2, 64)

    def test_cache_associativity_positive_and_divides(self):
        with pytest.raises(ConfigError, match="associativity must be"):
            CacheConfig("L1D", 32 * 1024, 0, 64)
        with pytest.raises(ConfigError, match="not divisible"):
            CacheConfig("L1D", 32 * 1024, 7, 64)

    def test_cache_set_count_power_of_two(self):
        with pytest.raises(ConfigError, match="set count"):
            CacheConfig("L1D", 3 * 64 * 4, 4, 64)

    def test_cache_hit_latency_positive(self):
        with pytest.raises(ConfigError, match="hit latency"):
            CacheConfig("L1D", 32 * 1024, 8, 64, hit_latency=0)

    def test_tlb_entries_positive(self):
        with pytest.raises(ConfigError, match=">= 1 entry"):
            TLBConfig("dTLB", 0)
        with pytest.raises(ConfigError, match="hit latency"):
            TLBConfig("dTLB", 64, hit_latency=-1)

    def test_hierarchy_shared_line_size(self):
        with pytest.raises(ConfigError, match="one line size"):
            HierarchyConfig(l1d=CacheConfig("L1D", 32 * 1024, 8, 128, 4))

    def test_hierarchy_memory_latency_positive(self):
        with pytest.raises(ConfigError, match="memory latency"):
            HierarchyConfig(memory_latency=0)

    def test_btb_entries_match_index_bits(self):
        with pytest.raises(ConfigError, match="index_bits"):
            BTBConfig(entries=512, index_bits=8)

    def test_hierarchy_requires_explicit_page_table(self):
        # Satellite: Machine is the single PageTable owner; a hierarchy
        # never silently defaults its own.
        with pytest.raises(ConfigError, match="PageTable"):
            MemoryHierarchy()


class TestSpecsCli:
    def test_list_text(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        for name in spec_names():
            assert name in out

    def test_list_json(self, capsys):
        assert main(["specs", "--format", "json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema_version"] == SCHEMA_VERSION
        payload = envelope["payload"]
        rows = {row["name"]: row for row in payload["specs"]}
        assert rows[DEFAULT_SPEC]["digest"] == MachineSpec().digest()
        assert rows["little-core"]["description"]

    def test_show_json_round_trips(self, capsys):
        assert main(["specs", "little-core", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        rebuilt = MachineSpec.from_dict(payload["spec"])
        assert rebuilt == get_spec("little-core")
        assert payload["digest"] == rebuilt.digest()

    def test_show_with_set_previews_derivation(self, capsys):
        assert main(["specs", DEFAULT_SPEC, "--set",
                     "core.rob_entries=64", "--set",
                     "core.iq_entries=32"]) == 0
        out = capsys.readouterr().out
        assert "core.rob_entries: 224 -> 64" in out

    def test_unknown_preset_is_an_error(self, capsys):
        assert main(["specs", "pentium-3"]) == 1
        assert "unknown spec" in capsys.readouterr().err


class TestRunCli:
    def test_run_preset_byte_identical_to_workload_default(self, capsys):
        assert main(["workload", "namd", "--instructions", "2000",
                     "--no-cache"]) == 0
        classic = capsys.readouterr().out
        assert main(["run", "namd", "--preset", DEFAULT_SPEC,
                     "--instructions", "2000", "--no-cache"]) == 0
        assert capsys.readouterr().out == classic

    def test_default_machine_shares_the_preset_cache_entry(self, capsys,
                                                           tmp_path):
        common = ["workload", "namd", "--instructions", "2000",
                  "--cache-dir", str(tmp_path), "--format", "json"]
        assert main(common) == 0
        first = json.loads(capsys.readouterr().out)["payload"]["runs"][0]
        assert main(common + ["--preset", DEFAULT_SPEC]) == 0
        second = json.loads(capsys.readouterr().out)["payload"]["runs"][0]
        assert not first["cached"] and second["cached"]
        assert (second["ipc"], second["cycles"]) == \
            (first["ipc"], first["cycles"])

    def test_run_defaults_to_suite(self):
        from repro.cli import build_parser

        parsed = build_parser().parse_args(["run"])
        assert parsed.name == "suite"
        parsed = build_parser().parse_args(
            ["run", "mcf", "--set", "core.rob_entries=96"])
        assert parsed.set_overrides == ["core.rob_entries=96"]

    def test_set_changes_the_simulation(self, capsys):
        assert main(["run", "mcf", "--instructions", "2000",
                     "--no-cache"]) == 0
        stock = capsys.readouterr().out
        assert main(["run", "mcf", "--instructions", "2000", "--no-cache",
                     "--set", "core.rob_entries=8",
                     "--set", "core.iq_entries=8"]) == 0
        assert capsys.readouterr().out != stock

    def test_bad_set_reports_config_error(self, capsys):
        assert main(["run", "namd", "--set", "core.bogus=1"]) == 1
        assert "unknown spec path" in capsys.readouterr().err

    def test_matrix_accepts_spec_flags(self, capsys):
        assert main(["matrix", "--format", "json", "--no-cache"]) == 0
        baseline_payload = json.loads(capsys.readouterr().out)
        assert baseline_payload["schema_version"] == SCHEMA_VERSION
