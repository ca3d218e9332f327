"""Tests for the execution-backend registry and the fast backend's
accuracy contract.

The contract (see ``repro.backends`` and the README's Backends section):
both backends land on bit-identical architectural state on the
untainted surface, produce identical leak/no-leak attack verdicts under
every policy, and agree on cycle counts within ``CYCLE_TOLERANCE`` on
suite workloads.  Backend selection is part of the job identity, so
cached results never cross backends.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.attacks import run_attack_by_name
from repro.backends import (BACKENDS, DEFAULT_BACKEND, backend_names,
                            create_backend)
from repro.bench import BenchSpec, QUICK_SPECS, backend_speedups, with_backend
from repro.api.scenario import Scenario
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.machine import Machine
from repro.verify import fuzz_profile, generate_fuzz_program
from repro.verify.harness import CYCLE_TOLERANCE
from repro.workloads import run_workload

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GOLDEN_CASES = (("mixed", 0), ("memory", 1), ("control", 2))


class TestRegistry:
    def test_builtin_backends_in_presentation_order(self):
        assert backend_names() == ["cycle", "fast"]
        assert DEFAULT_BACKEND == "cycle"

    def test_order_independent_of_first_import(self):
        # A fresh interpreter: importing the fast backend module first
        # registers it before the registry's loader runs.
        code = ("import repro.backends.fast\n"
                "from repro.backends import backend_names\n"
                "print(','.join(backend_names()))\n")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "cycle,fast"

    def test_create_returns_runnable_backends(self):
        for name in backend_names():
            backend = create_backend(name)
            assert callable(backend.run)

    def test_unknown_backend_fails_loudly_listing_known(self):
        with pytest.raises(ConfigError) as excinfo:
            BACKENDS.entry("warp")
        message = str(excinfo.value)
        assert "warp" in message
        assert "cycle" in message and "fast" in message

    def test_machine_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            Machine.from_spec(None, policy=CommitPolicy.BASELINE,
                              backend="warp")


class TestCacheKeys:
    """Backend is part of the job identity: v4 cache entries (no
    backend param) and cross-backend entries must never be served."""

    def test_backend_separates_workload_job_keys(self):
        cycle = Scenario.workload("namd", CommitPolicy.WFC,
                                  instructions=1000).job()
        fast = Scenario.workload("namd", CommitPolicy.WFC,
                                 instructions=1000, backend="fast").job()
        assert cycle.params["backend"] == "cycle"
        assert fast.params["backend"] == "fast"
        assert cycle.key() != fast.key()

    def test_backend_separates_attack_job_keys(self):
        cycle = Scenario.attack("spectre_v1", CommitPolicy.WFC).job()
        fast = Scenario.attack("spectre_v1", CommitPolicy.WFC,
                               backend="fast").job()
        assert cycle.key() != fast.key()

    def test_backendless_params_yield_a_different_key(self):
        # A schema-v4 job (no backend param) must not collide with any
        # v5 key — SCHEMA_VERSION 5 plus the params difference sees to
        # the former; this pins the latter directly.
        job = Scenario.workload("namd", CommitPolicy.WFC,
                                instructions=1000).job()
        stripped = {k: v for k, v in job.params.items() if k != "backend"}
        assert stripped != job.params


def _memory_digest(reader, addresses) -> str:
    blob = b"".join(reader.read_word(addr).to_bytes(8, "little")
                    for addr in addresses)
    return hashlib.sha256(blob).hexdigest()


class TestGoldenEquivalence:
    """The fast backend must land on the same pinned golden states the
    cycle core is held to (tests/test_golden_states.py)."""

    @pytest.mark.parametrize("profile,seed", GOLDEN_CASES)
    def test_fast_backend_reproduces_golden_state(self, profile, seed):
        fixture = json.loads(
            (FIXTURES / f"golden_{profile}_seed{seed}.json").read_text())
        case = generate_fuzz_program(fuzz_profile(profile), seed)
        machine = Machine.from_spec(None, policy=CommitPolicy.BASELINE,
                                    backend="fast")
        case.apply_memory_image(machine)
        result = machine.run(case.program,
                             fault_handler_pc=case.fault_handler_pc)
        assert result.instructions == fixture["instructions"]
        assert result.halted_reason == fixture["halted_reason"]
        tainted = set(fixture["tainted"])
        for index, text in enumerate(fixture["registers"]):
            if index not in tainted:
                assert result.registers[index] == int(text, 16), f"r{index}"
        assert _memory_digest(machine, case.compare_addresses()) == \
            fixture["memory_sha256"]


class TestMatrixVerdicts:
    """Leak/no-leak verdicts are backend-independent — the security
    matrix means the same thing whichever backend produced it."""

    ATTACKS = ("spectre_v1", "meltdown", "icache", "transient")

    @pytest.mark.parametrize("attack", ATTACKS)
    @pytest.mark.parametrize("policy", list(CommitPolicy))
    def test_verdict_identical_across_backends(self, attack, policy):
        cycle = run_attack_by_name(attack, policy, secret=42)
        fast = run_attack_by_name(attack, policy, secret=42,
                                  backend="fast")
        assert fast.success == cycle.success, (attack, policy)


class TestCycleTolerance:
    """Suite workloads: same retirement count, cycles within the
    documented tolerance on short cold-start runs (4k instructions)."""

    @pytest.mark.parametrize("bench,policy", [
        ("namd", CommitPolicy.BASELINE),
        ("mcf", CommitPolicy.WFC),
    ])
    def test_cycles_within_contract(self, bench, policy):
        cycle = run_workload(bench, policy, instructions=4000)
        fast = run_workload(bench, policy, instructions=4000,
                            backend="fast")
        assert fast.result.instructions == cycle.result.instructions
        drift = abs(fast.result.cycles - cycle.result.cycles) \
            / cycle.result.cycles
        assert drift <= CYCLE_TOLERANCE, \
            f"{bench}/{policy.value}: {drift:.1%} cycle drift"


class TestBenchBackends:
    def test_with_backend_suffixes_row_names(self):
        fast = with_backend(QUICK_SPECS, "fast")
        assert [s.name for s in fast] == \
            [f"{s.name}_fast" for s in QUICK_SPECS]
        assert all(s.backend == "fast" for s in fast)

    def test_with_backend_default_is_identity(self):
        assert with_backend(QUICK_SPECS, DEFAULT_BACKEND) == \
            tuple(QUICK_SPECS)

    def test_backend_spec_changes_job_key(self):
        spec = QUICK_SPECS[0]
        fast = with_backend([spec], "fast")[0]
        assert isinstance(fast, BenchSpec)
        assert fast.job().key() != spec.job().key()

    @staticmethod
    def _row(name, backend, best_wall_s, benchmark="namd", cycles=1000,
             sim_instructions=1000):
        return {"name": name, "backend": backend, "benchmark": benchmark,
                "policy": "wfc", "instructions": 1000,
                "machine_spec_digest": "d0", "cycles": cycles,
                "sim_instructions": sim_instructions,
                "best_wall_s": best_wall_s}

    def test_backend_speedups_pair_within_one_payload(self):
        row = self._row
        current = {"results": [
            row("namd_wfc_1000", "cycle", 1.2),
            row("namd_wfc_1000_fast", "fast", 0.1),
            row("mcf_wfc_1000", "cycle", 3.0, benchmark="mcf"),
            row("mcf_wfc_1000_fast", "fast", 0.3, benchmark="mcf"),
            # No cycle twin in this payload: never paired.
            row("xz_wfc_1000_fast", "fast", 0.1, benchmark="xz"),
        ]}
        report = backend_speedups(current)
        by_name = {p["name"]: p for p in report["pairs"]}
        assert set(by_name) == {"namd_wfc_1000_fast", "mcf_wfc_1000_fast"}
        assert by_name["namd_wfc_1000_fast"]["speedup"] == 12.0
        assert by_name["mcf_wfc_1000_fast"]["speedup"] == 10.0
        assert by_name["mcf_wfc_1000_fast"]["reference_name"] == \
            "mcf_wfc_1000"
        assert report["min"] == 10.0
        assert report["geomean"] == pytest.approx(10.95, abs=0.01)

    def test_backend_speedup_ignores_estimated_cycles(self):
        """The fast backend only estimates cycles; equal wall time over
        equal instructions is 1.00x whatever the cycle counts say."""
        row = self._row
        report = backend_speedups({"results": [
            row("namd_wfc_1000", "cycle", 0.5, cycles=4000),
            row("namd_wfc_1000_fast", "fast", 0.5, cycles=3400)]})
        (pair,) = report["pairs"]
        assert pair["speedup"] == 1.0

    def test_backend_speedups_need_equal_instructions(self):
        row = self._row
        report = backend_speedups({"results": [
            row("namd_wfc_1000", "cycle", 1.0),
            row("namd_wfc_1000_fast", "fast", 0.1,
                sim_instructions=999)]})
        assert report["pairs"] == []

    def test_backend_speedups_empty_without_pairs(self):
        report = backend_speedups({"results": []})
        assert report["pairs"] == []
        assert "geomean" not in report
