"""Tests for the extension attack variants and channel receivers."""

import pytest

from repro import CommitPolicy, Machine
from repro.attacks.channels import (DEFAULT_HIT_THRESHOLD,
                                    FlushReloadChannel, ProbeOutcome,
                                    _outcome, leaked_value)
from repro.attacks.gadgets import AttackLayout, warm_lines
from repro.attacks.meltdown_spectre import run_meltdown_spectre
from repro.errors import ConfigError
from repro.attacks.runner import run_attack_by_name
from repro.attacks.tsa import run_tsa_block_policy

BASELINE = CommitPolicy.BASELINE
WFB = CommitPolicy.WFB
WFC = CommitPolicy.WFC


class TestMeltdownSpectreCombo:
    """Paper §II-B.4: gadget behind a mispredicted branch avoids the
    exception.  Because it now *depends* on branch misspeculation, WFB
    closes it too — unlike plain Meltdown."""

    def test_baseline_leaks_without_faulting(self):
        result = run_meltdown_spectre(BASELINE, secret=42)
        assert result.success
        assert result.details["attack_run_faults"] == []

    def test_wfb_closes_the_combo(self):
        assert run_meltdown_spectre(WFB, secret=42).closed

    def test_wfc_closes_the_combo(self):
        assert run_meltdown_spectre(WFC, secret=42).closed

    def test_registered_in_runner(self):
        assert run_attack_by_name("meltdown_spectre", BASELINE, 42).success

    def test_rejects_non_byte_secret(self):
        with pytest.raises(ConfigError, match="secret must be a byte"):
            run_meltdown_spectre(BASELINE, secret=1000)


class TestBlockPolicyTsa:
    """Paper §V: with a BLOCK full-policy the spy observes *delay*
    instead of dropped entries."""

    def test_timing_channel_works_when_undersized(self):
        result = run_tsa_block_policy(WFC, secret=1)
        assert result.details["channel_works"]
        assert result.details["cycles_bit1"] > \
            result.details["cycles_bit0"]
        assert result.success

    def test_transmits_zero(self):
        assert run_tsa_block_policy(WFC, secret=0).success


class TestChannels:
    def test_probe_outcome_unique_hot_slot(self):
        # A latency at the threshold is a miss; one below it is a hit.
        outcome = _outcome([200, DEFAULT_HIT_THRESHOLD - 1,
                            DEFAULT_HIT_THRESHOLD], DEFAULT_HIT_THRESHOLD)
        assert outcome.hot_slots == [1]
        assert outcome.value == 1

    def test_probe_outcome_ambiguous(self):
        outcome = ProbeOutcome(latencies=[5, 5], hot_slots=[0, 1])
        assert outcome.value is None

    def test_probe_outcome_empty(self):
        assert ProbeOutcome(latencies=[200], hot_slots=[]).value is None

    def test_classify_hit(self):
        # A scan counts a slot hot only strictly below the threshold.
        assert _outcome([DEFAULT_HIT_THRESHOLD - 1],
                        DEFAULT_HIT_THRESHOLD).hot_slots == [0]
        assert _outcome([DEFAULT_HIT_THRESHOLD],
                        DEFAULT_HIT_THRESHOLD).hot_slots == []

    def test_leaked_value_ignores_benign_slots(self):
        assert leaked_value([0, 42]) is None
        assert leaked_value([0, 42], benign={0}) == 42
        # A single wrong hot slot is still what the receiver recovered.
        assert leaked_value([7], benign={0}, secret=42) == 7

    def test_leaked_value_coarse_receiver(self):
        """Prime+Probe sees a set: the secret is recovered when the one
        hot set is the secret's, and nothing else is reported."""
        assert leaked_value([42], secret=106, secret_slot=42) == 106
        assert leaked_value([41], secret=106, secret_slot=42) is None
        assert leaked_value([41, 42], secret=106, secret_slot=42) is None

    def test_flush_reload_roundtrip(self):
        machine = Machine()
        base = 0x40000
        channel = FlushReloadChannel(machine, base, slots=8)
        channel.map()
        warm_lines(machine, [channel.slot_address(3)])
        outcome = channel.probe()
        assert outcome.value == 3
        channel.flush()
        assert channel.probe().value is None

    def test_slot_addresses_stride(self):
        channel = FlushReloadChannel(Machine(), 0x40000, stride=64)
        assert channel.slot_address(2) - channel.slot_address(1) == 64


class TestGadgets:
    def test_layout_maps_disjoint_regions(self):
        layout = AttackLayout()
        machine = Machine()
        layout.map_user_memory(machine)
        # all the key locations are mapped and writable
        for addr in (layout.array1, layout.size_addr, layout.secret_addr,
                     layout.probe, layout.delay1, layout.delay2):
            machine.write_word(addr, 1)
            assert machine.read_word(addr) == 1

    def test_kernel_map_is_supervisor_only(self):
        layout = AttackLayout()
        machine = Machine()
        layout.map_kernel_memory(machine)
        translation = machine.page_table.lookup(layout.kernel)
        assert translation.permissions.supervisor_only

    def test_warm_lines_installs_lines_and_translations(self):
        machine = Machine()
        machine.map_user_range(0x50000, 4096)
        warm_lines(machine, [0x50000])
        assert machine.hierarchy.l1d.contains(0x50000)
        assert machine.hierarchy.dtlb.contains(0x50000 >> 12)

    def test_warm_lines_serialized_equivalent_effect(self):
        machine = Machine(policy=WFC)
        machine.map_user_range(0x50000, 4096 * 4)
        addresses = [0x50000 + i * 4096 for i in range(4)]
        warm_lines(machine, addresses, serialized=True)
        for addr in addresses:
            assert machine.hierarchy.dtlb.contains(addr >> 12)


class TestPredictorChoice:
    def test_gshare_machine_runs(self):
        from repro import ProgramBuilder

        machine = Machine(predictor="gshare")
        b = ProgramBuilder()
        b.li("r1", 3)
        b.label("loop")
        b.alu("sub", "r1", "r1", imm=1)
        b.branch("ne", "r1", "r0", "loop")
        b.halt()
        assert machine.run(b.build()).reg("r1") == 0

    def test_unknown_predictor_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Machine(predictor="neural9000")

    def test_spectre_v1_leaks_with_gshare_baseline(self):
        """SafeSpec 'makes no assumptions on the branch predictor': the
        attack works against either predictor on the baseline."""
        import repro.attacks.spectre_v1 as sv1
        from repro.attacks.channels import FlushReloadChannel
        from repro.attacks.gadgets import AttackLayout, warm_lines

        layout = AttackLayout()
        machine = Machine(policy=BASELINE, predictor="gshare")
        layout.map_user_memory(machine)
        machine.write_word(layout.size_addr, 16)
        machine.write_word(layout.secret_addr, 99)
        victim = sv1.build_victim(layout)
        channel = FlushReloadChannel(machine, layout.probe)
        warm_lines(machine, [layout.secret_addr],
                   code_base=layout.helper_code)
        for _ in range(8):
            machine.run(victim, initial_registers={1: 1})
        machine.flush_address(layout.size_addr)
        channel.flush()
        machine.run(victim, initial_registers={
            1: layout.secret_addr - layout.array1})
        assert channel.probe().value == 99


class TestFunctionTableVictims:
    """The I-cache and iTLB victims load their table base with ``la``;
    the programs are pinned to the listings the earlier build-then-patch
    construction produced (length and a digest of ``to_source()``)."""

    @pytest.mark.parametrize("build, length, digest, fn_base", [
        ("icache", 4113, "dbd3ae1564afc551", 0x1100),
        ("itlb", 16641, "66b54e4a76a4a0be", 0x2000),
    ])
    def test_victim_listing_is_pinned(self, build, length, digest, fn_base):
        import hashlib

        from repro.attacks.icache_variant import build_victim
        from repro.attacks.tlb_variant import build_itlb_victim

        builder = {"icache": build_victim, "itlb": build_itlb_victim}[build]
        victim = builder(AttackLayout())
        assert len(victim) == length
        assert hashlib.sha256(
            victim.to_source().encode()).hexdigest()[:16] == digest
        assert victim.label_pc("fn_table") == fn_base
        r9 = [inst for inst in victim if inst.rd == 9]
        assert [inst.imm for inst in r9] == [fn_base]
