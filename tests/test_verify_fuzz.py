"""Tests for the seeded program fuzzer."""

import pytest

from repro.errors import ConfigError
from repro.isa.instructions import Opcode
from repro.verify import (FUZZ_PROFILES, FuzzProfile, ReferenceOracle,
                          fuzz_profile, generate_fuzz_program)


class TestProfiles:
    def test_registered_profiles_valid(self):
        for name, profile in FUZZ_PROFILES.items():
            assert fuzz_profile(name) is profile

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            fuzz_profile("nope")

    def test_dict_roundtrip(self):
        profile = FUZZ_PROFILES["control"]
        assert FuzzProfile.from_dict(profile.to_dict()) == profile

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(ConfigError):
            FuzzProfile.from_dict({"name": "x", "bogus": 1})

    @pytest.mark.parametrize("bad", [
        {"ops": 0},
        {"data_bytes": 8},
        {"max_loop_iterations": 0},
        {"loops": 5},
        {"load_fraction": 0.9, "store_fraction": 0.9},
    ])
    def test_invalid_profiles_rejected(self, bad):
        with pytest.raises(ConfigError):
            FuzzProfile(**bad)


class TestGeneration:
    def test_deterministic_across_calls(self):
        a = generate_fuzz_program(FUZZ_PROFILES["mixed"], 5)
        b = generate_fuzz_program(FUZZ_PROFILES["mixed"], 5)
        assert a.program.instructions == b.program.instructions
        assert a.initial_words == b.initial_words
        assert a.fault_handler_pc == b.fault_handler_pc

    def test_seeds_differ(self):
        a = generate_fuzz_program(FUZZ_PROFILES["mixed"], 0)
        b = generate_fuzz_program(FUZZ_PROFILES["mixed"], 1)
        assert a.program.instructions != b.program.instructions

    def test_profiles_differ(self):
        a = generate_fuzz_program(FUZZ_PROFILES["alu"], 0)
        b = generate_fuzz_program(FUZZ_PROFILES["memory"], 0)
        assert a.program.instructions != b.program.instructions

    def test_program_always_reaches_halt(self):
        for seed in range(3):
            case = generate_fuzz_program(FUZZ_PROFILES["mixed"], seed)
            opcodes = {inst.opcode for inst in case.program}
            assert Opcode.HALT in opcodes

    def test_compare_addresses_cover_region_and_kernel(self):
        case = generate_fuzz_program(FUZZ_PROFILES["mixed"], 0)
        addrs = case.compare_addresses()
        assert case.data_base in addrs
        assert case.kernel_base in addrs
        assert len(addrs) == case.data_bytes // 8 + 1

    def test_faulty_profile_always_has_handler(self):
        for seed in range(3):
            case = generate_fuzz_program(FUZZ_PROFILES["faulty"], seed)
            assert case.fault_handler_pc is not None

    def test_alu_profile_emits_no_memory_ops(self):
        case = generate_fuzz_program(FUZZ_PROFILES["alu"], 0)
        opcodes = {inst.opcode for inst in case.program}
        assert Opcode.STORE not in opcodes
        assert Opcode.CLFLUSH not in opcodes


class TestTermination:
    """Every generated program must terminate on the oracle — the
    fuzzer's well-formedness contract (bounded loops, forward skips,
    statically-known jmpi targets, taint discipline)."""

    @pytest.mark.parametrize("name", sorted(FUZZ_PROFILES))
    def test_all_profiles_terminate(self, name):
        for seed in range(5):
            case = generate_fuzz_program(FUZZ_PROFILES[name], seed)
            oracle = ReferenceOracle()
            case.apply_memory_image(oracle)
            result = oracle.run(case.program,
                                fault_handler_pc=case.fault_handler_pc)
            assert result.halted_reason == "halt"
            assert result.instructions > 0
