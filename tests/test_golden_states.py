"""Golden-state regression tests: committed fuzz seeds vs known-good
architectural results.

Three (profile, seed) cases are pinned with their oracle final states
as JSON fixtures under ``tests/fixtures/``.  Pipeline or ISA refactors
that change *architectural* behaviour show up here as a diff against a
known-good state — independent of (and earlier than) the live
differential harness.

To regenerate after an intentional semantic change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_states.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.core.policy import CommitPolicy
from repro.machine import Machine
from repro.verify import (FUZZ_FORMAT_VERSION, fuzz_profile,
                          generate_fuzz_program, run_reference)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GOLDEN_CASES = (("mixed", 0), ("memory", 1), ("control", 2))


def _fixture_path(profile: str, seed: int) -> pathlib.Path:
    return FIXTURES / f"golden_{profile}_seed{seed}.json"


def _memory_digest(reader, addresses) -> str:
    """SHA-256 over the little-endian words at ``addresses``."""
    blob = b"".join(reader.read_word(addr).to_bytes(8, "little")
                    for addr in addresses)
    return hashlib.sha256(blob).hexdigest()


def _golden_state(profile: str, seed: int) -> dict:
    case = generate_fuzz_program(fuzz_profile(profile), seed)
    oracle, golden = run_reference(case)
    return {
        "fuzz_version": FUZZ_FORMAT_VERSION,
        "profile": profile,
        "seed": seed,
        "instructions": golden.instructions,
        "halted_reason": golden.halted_reason,
        "tainted": sorted(golden.tainted),
        "registers": [f"{value:#x}" for value in golden.registers],
        "faults": [[f.pc, f.vaddr, f.kind] for f in golden.fault_events],
        "memory_sha256": _memory_digest(oracle, case.compare_addresses()),
    }


@pytest.mark.parametrize("profile,seed", GOLDEN_CASES)
def test_oracle_matches_golden_fixture(profile, seed):
    path = _fixture_path(profile, seed)
    state = _golden_state(profile, seed)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.write_text(json.dumps(state, indent=2) + "\n")
        pytest.skip(f"regenerated {path.name}")
    fixture = json.loads(path.read_text())
    assert fixture == state


@pytest.mark.parametrize("profile,seed", GOLDEN_CASES)
def test_machine_reproduces_golden_architectural_state(profile, seed):
    """The full out-of-order machine must land on the pinned state too
    (untainted registers + memory image + retirement count)."""
    path = _fixture_path(profile, seed)
    fixture = json.loads(path.read_text())
    case = generate_fuzz_program(fuzz_profile(profile), seed)
    machine = Machine.from_spec(policy=CommitPolicy.BASELINE)
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
