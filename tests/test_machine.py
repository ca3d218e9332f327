"""Tests for the Machine facade.

Probe/program construction comes from the shared ``conftest.py``
fixtures (``load_program``, ``user_machine``).
"""

import pytest

from repro_testlib import KERNEL_BASE
from repro import (CommitPolicy, FullPolicy, Machine, ProgramBuilder,
                   SafeSpecConfig, SizingMode)
from repro.errors import ConfigError
from repro.verify.oracle import ReferenceOracle


class TestConstruction:
    def test_baseline_has_no_engine(self):
        assert Machine(policy=CommitPolicy.BASELINE).engine is None

    @pytest.mark.parametrize("policy",
                             [CommitPolicy.WFB, CommitPolicy.WFC])
    def test_safespec_policies_have_engine(self, policy):
        machine = Machine(policy=policy)
        assert machine.engine is not None
        assert machine.engine.config.policy is policy

    def test_explicit_config_overrides_policy(self):
        config = SafeSpecConfig(policy=CommitPolicy.WFB,
                                sizing=SizingMode.CUSTOM,
                                full_policy=FullPolicy.BLOCK,
                                dcache_entries=4, icache_entries=4,
                                itlb_entries=4, dtlb_entries=4)
        machine = Machine(policy=CommitPolicy.BASELINE,
                          safespec_config=config)
        assert machine.policy is CommitPolicy.WFB
        assert machine.engine.shadow_dcache.capacity == 4


class TestMemoryHelpers:
    def test_write_read_word(self):
        machine = Machine()
        machine.map_user_range(0x10000, 4096)
        machine.write_word(0x10008, 321)
        assert machine.read_word(0x10008) == 321

    def test_unmapped_write_raises(self):
        with pytest.raises(KeyError):
            Machine().write_word(0x10000, 1)

    def test_unmapped_read_raises(self):
        with pytest.raises(KeyError):
            Machine().read_word(0x10000)

    @pytest.mark.parametrize("make", [Machine, ReferenceOracle],
                             ids=["machine", "oracle"])
    def test_bulk_words_equal_per_word_access(self, make):
        # Three pages, written out of page order, one word unaligned.
        words = [(0x10000 + 8 * i, 1000 + i) for i in range(600)]
        words += [(0x12ff8, 7), (0x10003, 2**64 + 5), (0x11000, 9)]
        bulk, single = make(), make()
        for target in (bulk, single):
            target.map_user_range(0x10000, 3 * 4096)
        bulk.write_words(words)
        for vaddr, value in words:
            single.write_word(vaddr, value)
        addresses = [vaddr for vaddr, _ in words] + [0x12000, 0x10001]
        expected = [single.read_word(a) for a in addresses]
        assert bulk.read_words(addresses) == expected
        assert single.read_words(addresses) == expected
        assert [bulk.read_word(a) for a in addresses] == expected

    @pytest.mark.parametrize("make", [Machine, ReferenceOracle],
                             ids=["machine", "oracle"])
    def test_block_equals_bulk_words_across_frames(self, make):
        # The block crosses from an identity-mapped page into one mapped
        # to another frame.
        values = [3000 + i for i in range(10)]
        vaddrs = [0x10fe8 + 8 * i for i in range(10)]
        block, bulk = make(), make()
        for target in (block, bulk):
            target.page_table.map_page(0x10)
            target.page_table.map_page(0x11, ppn=0x40)
        block.write_block(0x10fe8, values)
        bulk.write_words(zip(vaddrs, values))
        assert block.read_block(0x10fe8, 10) == bulk.read_words(vaddrs) \
            == values
        assert bulk.read_block(0x10fe8, 10) == block.read_words(vaddrs)
        assert block.memory.read_word(0x40000) == values[3]
        assert block.memory.read_word(0x11000) == 0
        assert block.memory.footprint() == bulk.memory.footprint() == 80

    @pytest.mark.parametrize("make", [Machine, ReferenceOracle],
                             ids=["machine", "oracle"])
    def test_block_unmapped_raises_before_writing(self, make):
        target = make()
        target.map_user_range(0x10000, 4096)
        with pytest.raises(KeyError, match="0x11000"):
            target.write_block(0x10ff0, [1, 2, 3, 4])
        with pytest.raises(KeyError, match="0x11000"):
            target.read_block(0x10ff0, 4)
        assert target.read_words([0x10ff0, 0x10ff8]) == [0, 0]
        assert target.memory.footprint() == 0

    @pytest.mark.parametrize("make", [Machine, ReferenceOracle],
                             ids=["machine", "oracle"])
    def test_block_base_must_be_word_aligned(self, make):
        target = make()
        target.map_user_range(0x10000, 4096)
        with pytest.raises(ConfigError, match="0x10004"):
            target.write_block(0x10004, [1])
        with pytest.raises(ConfigError, match="0x10004"):
            target.read_block(0x10004, 1)
        assert target.memory.footprint() == 0

    @pytest.mark.parametrize("make", [Machine, ReferenceOracle],
                             ids=["machine", "oracle"])
    def test_bulk_words_unmapped_raises(self, make):
        target = make()
        target.map_user_range(0x10000, 4096)
        with pytest.raises(KeyError, match="0x20008"):
            target.read_words([0x10000, 0x20008])
        with pytest.raises(KeyError, match="0x20008"):
            target.write_words([(0x10000, 1), (0x20008, 2)])
        # A failed bulk write writes nothing.
        assert target.read_word(0x10000) == 0
        with pytest.raises(KeyError):
            target.read_word(0x20008)
        with pytest.raises(KeyError):
            target.write_word(0x20008, 1)

    def test_unmapped_flush_raises(self):
        with pytest.raises(KeyError):
            Machine().flush_address(0x10000)

    def test_kernel_range_blocks_user_runs(self, user_machine,
                                           load_program):
        machine = user_machine(data_bytes=0, kernel=True)
        result = machine.run(load_program(KERNEL_BASE))
        assert result.fault_events


class TestRun:
    def test_code_auto_mapped(self):
        machine = Machine()
        b = ProgramBuilder()
        b.li("r1", 5)
        b.halt()
        result = machine.run(b.build())
        assert result.reg("r1") == 5

    def test_state_persists_across_runs(self, load_program):
        machine = Machine()
        machine.map_user_range(0x10000, 4096)
        program = load_program(0x10000)
        cold = machine.run(program).cycles
        warm = machine.run(program).cycles
        assert warm < cold

    def test_probe_latency_reflects_cache_state(self, load_program):
        machine = Machine()
        machine.map_user_range(0x10000, 4096)
        cold = machine.probe_latency(0x10000)
        machine.run(load_program(0x10000))
        assert machine.probe_latency(0x10000) < cold

    def test_flush_address_restores_miss_latency(self, load_program):
        machine = Machine()
        machine.map_user_range(0x10000, 4096)
        machine.run(load_program(0x10000))
        machine.flush_address(0x10000)
        assert machine.probe_latency(0x10000) > 100

    def test_probe_fetch_latency(self):
        machine = Machine()
        b = ProgramBuilder()
        b.halt()
        machine.run(b.build())
        assert machine.probe_fetch_latency(0x1000) < 100

    def test_probe_translation_latency_sides(self):
        machine = Machine()
        machine.map_user_range(0x10000, 4096)
        d = machine.probe_translation_latency(0x10000, side="d")
        i = machine.probe_translation_latency(0x10000, side="i")
        assert d > 0 and i > 0
