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
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.job import attack_job, workload_job
from repro.isa.assembler import ProgramBuilder
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
            Machine.from_spec(policy=CommitPolicy.BASELINE,
                              backend="warp")


class TestCacheKeys:
    """Backend is part of the job identity: v4 cache entries (no
    backend param) and cross-backend entries must never be served."""

    def test_backend_separates_workload_job_keys(self):
        cycle = workload_job("namd", CommitPolicy.WFC, instructions=1000)
        fast = workload_job("namd", CommitPolicy.WFC, instructions=1000,
                            backend="fast")
        assert cycle.params["backend"] == "cycle"
        assert fast.params["backend"] == "fast"
        assert cycle.key() != fast.key()

    def test_backend_separates_attack_job_keys(self):
        cycle = attack_job("spectre_v1", CommitPolicy.WFC)
        fast = attack_job("spectre_v1", CommitPolicy.WFC, backend="fast")
        assert cycle.key() != fast.key()

    def test_backendless_params_yield_a_different_key(self):
        # A schema-v4 job (no backend param) must not collide with any
        # v5 key — SCHEMA_VERSION 5 plus the params difference sees to
        # the former; this pins the latter directly.
        job = workload_job("namd", CommitPolicy.WFC, instructions=1000)
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
        machine = Machine.from_spec(policy=CommitPolicy.BASELINE,
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
        assert fast.instructions == cycle.instructions
        drift = abs(fast.cycles - cycle.cycles) / cycle.cycles
        assert drift <= CYCLE_TOLERANCE, \
            f"{bench}/{policy.value}: {drift:.1%} cycle drift"


class TestCommitRefreshPhysicalLine:
    """A committed fetch refreshes the physical i-line's recency.

    Code at vpn 0x40 runs from ppn 0x77.  Its line starts LRU in a full
    8-way L1I set; the fetch hits it.  Baseline's access-time lookup
    moves it to MRU, and SafeSpec's commit-time refresh must do the
    same, on the physical line (the virtual line is in no cache).
    """

    CODE_BASE = 0x40 << 12
    PPN = 0x77

    @pytest.mark.parametrize("backend", backend_names())
    @pytest.mark.parametrize("policy", list(CommitPolicy),
                             ids=lambda p: p.value)
    def test_code_line_moves_to_mru(self, backend, policy):
        machine = Machine(policy=policy, backend=backend)
        machine.page_table.map_page(self.CODE_BASE >> 12, self.PPN)
        l1i = machine.hierarchy.l1i
        code_line = self.PPN << 12
        stride = l1i.config.num_sets * l1i.config.line_bytes
        for way in range(l1i.config.associativity):
            l1i.fill(code_line + way * stride)
        index = (code_line // l1i.config.line_bytes) % l1i.config.num_sets
        assert l1i.snapshot()[index][0] == code_line
        b = ProgramBuilder(code_base=self.CODE_BASE)
        b.nop(2)
        b.halt()
        result = machine.run(b.build(), map_code=False)
        assert result.halted_reason == "halt"
        assert l1i.snapshot()[index][-1] == code_line
