"""Unit tests for the SafeSpec engine (promotion / annulment / sizing)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import CommitPolicy
from repro.core.safespec import (PERFORMANCE_SIZES, SafeSpecConfig,
                                 SafeSpecEngine, SizingMode)
from repro.core.shadow import FullPolicy
from repro.errors import ConfigError
from repro.isa.instructions import Instruction, Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.paging import PagePermissions, PageTable, Translation
from repro.pipeline.uop import DynUop


def make_engine(policy=CommitPolicy.WFC, sizing=SizingMode.SECURE,
                **kwargs):
    config = SafeSpecConfig(policy=policy, sizing=sizing, **kwargs)
    hierarchy = MemoryHierarchy(page_table=PageTable())
    return SafeSpecEngine(config, hierarchy)


def make_uop(seq=1):
    return DynUop(seq, Instruction(Opcode.NOP), 0x1000, 0, 0)


class TestSizing:
    def test_secure_sizing_bounds(self):
        engine = make_engine(sizing=SizingMode.SECURE)
        assert engine.shadow_dcache.capacity == 72 + 56
        assert engine.shadow_icache.capacity == 224
        assert engine.shadow_itlb.capacity == 224
        assert engine.shadow_dtlb.capacity == 72 + 56

    def test_performance_sizing(self):
        engine = make_engine(sizing=SizingMode.PERFORMANCE)
        assert engine.shadow_dcache.capacity == \
            PERFORMANCE_SIZES["shadow_dcache"]

    def test_custom_sizing(self):
        engine = make_engine(
            sizing=SizingMode.CUSTOM, dcache_entries=7, icache_entries=8,
            itlb_entries=9, dtlb_entries=10)
        assert engine.shadow_dcache.capacity == 7
        assert engine.shadow_dtlb.capacity == 10

    def test_custom_sizing_requires_all_sizes(self):
        with pytest.raises(ConfigError):
            SafeSpecConfig(sizing=SizingMode.CUSTOM, dcache_entries=4)


class TestRecordPromoteAnnul:
    def test_line_promoted_to_committed_caches(self):
        engine = make_engine()
        uop = make_uop()
        engine.record_line("d", 0x4000, uop)
        assert not engine.hierarchy.l1d.contains(0x4000)
        moved = engine.promote(uop)
        assert moved == 1
        assert engine.hierarchy.l1d.contains(0x4000)
        assert engine.hierarchy.l3.contains(0x4000)
        assert engine.shadow_dcache.occupancy() == 0

    def test_annul_leaves_no_trace(self):
        engine = make_engine()
        uop = make_uop()
        engine.record_line("d", 0x4000, uop)
        engine.record_line("i", 0x5000, uop)
        engine.annul(uop)
        assert not engine.hierarchy.l1d.contains(0x4000)
        assert not engine.hierarchy.l1i.contains(0x5000)
        assert engine.shadow_dcache.occupancy() == 0
        assert engine.shadow_icache.occupancy() == 0

    def test_translation_promoted_to_tlb(self):
        engine = make_engine()
        uop = make_uop()
        translation = Translation(vpn=5, ppn=5,
                                  permissions=PagePermissions())
        engine.record_translation("d", translation, uop)
        assert not engine.hierarchy.dtlb.contains(5)
        engine.promote(uop)
        assert engine.hierarchy.dtlb.contains(5)

    def test_promote_is_idempotent(self):
        engine = make_engine()
        uop = make_uop()
        engine.record_line("d", 0x4000, uop)
        assert engine.promote(uop) == 1
        assert engine.promote(uop) == 0

    def test_sides_are_separate_structures(self):
        engine = make_engine()
        uop = make_uop()
        engine.record_line("i", 0x4000, uop)
        assert engine.shadow_icache.occupancy() == 1
        assert engine.shadow_dcache.occupancy() == 0

    def test_wfb_promotes_on_branch_resolution(self):
        engine = make_engine(policy=CommitPolicy.WFB)
        uop = make_uop()
        engine.record_line("d", 0x4000, uop)
        engine.on_branch_resolved(uop)
        assert engine.hierarchy.l1d.contains(0x4000)
        assert uop.promoted

    def test_wfc_ignores_branch_resolution(self):
        engine = make_engine(policy=CommitPolicy.WFC)
        uop = make_uop()
        engine.record_line("d", 0x4000, uop)
        engine.on_branch_resolved(uop)
        assert not engine.hierarchy.l1d.contains(0x4000)
        engine.on_commit(uop)
        assert engine.hierarchy.l1d.contains(0x4000)


class TestShadowSink:
    def test_sink_routes_fills_to_shadow(self):
        engine = make_engine()
        uop = make_uop()
        sink = engine.sink_for(uop)
        sink.fill_line("d", 0x4000)
        assert sink.lookup_line("d", 0x4000)
        assert not engine.hierarchy.l1d.contains(0x4000)

    def test_sink_translation_roundtrip(self):
        engine = make_engine()
        uop = make_uop()
        sink = engine.sink_for(uop)
        translation = Translation(vpn=3, ppn=9,
                                  permissions=PagePermissions())
        sink.fill_translation("d", translation)
        assert sink.lookup_translation("d", 3).ppn == 9
        assert sink.lookup_translation("d", 4) is None

    def test_sink_is_speculative(self):
        engine = make_engine()
        assert engine.sink_for(make_uop()).speculative


class TestBlockPolicy:
    def test_block_policy_gates_admission(self):
        engine = make_engine(
            sizing=SizingMode.CUSTOM, full_policy=FullPolicy.BLOCK,
            dcache_entries=1, icache_entries=4, itlb_entries=4,
            dtlb_entries=4)
        assert engine.can_accept_data_access()
        engine.record_line("d", 0x4000, make_uop(1))
        assert not engine.can_accept_data_access()

    def test_drop_policy_always_admits(self):
        engine = make_engine(
            sizing=SizingMode.CUSTOM, full_policy=FullPolicy.DROP,
            dcache_entries=1, icache_entries=4, itlb_entries=4,
            dtlb_entries=4)
        engine.record_line("d", 0x4000, make_uop(1))
        assert engine.can_accept_data_access()


class TestOccupancySampling:
    def test_samples_all_structures(self):
        engine = make_engine()
        engine.sample_occupancy()
        for structure in engine.all_structures():
            assert structure.occupancy_histogram.total == 1

    def test_bulk_sample_equals_single_samples(self):
        bulk, single = make_engine(), make_engine()
        for engine in (bulk, single):
            engine.record_line("d", 0x4000, make_uop(1))
        bulk.sample_occupancy(count=4)
        for _ in range(4):
            single.sample_occupancy()
        for engine in (bulk, single):
            engine.record_line("d", 0x4040, make_uop(2))
        bulk.sample_occupancy(count=3)
        for _ in range(3):
            single.sample_occupancy()
        for mine, theirs in zip(bulk.all_structures(),
                                single.all_structures()):
            assert list(mine.occupancy_histogram.items()) == \
                list(theirs.occupancy_histogram.items())
        assert list(bulk.shadow_dcache.occupancy_histogram.items()) == \
            [(1, 4), (2, 3)]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(FullPolicy)), st.lists(st.one_of(
        st.tuples(st.just("fill"), st.integers(0, 3), st.integers(0, 5)),
        st.tuples(st.sampled_from(["release", "annul"]), st.integers(0, 3),
                  st.integers(0, 7)),
        st.tuples(st.just("sample"), st.integers(1, 40)),
        st.tuples(st.just("read"))), max_size=60))
    def test_charged_histograms_equal_per_cycle_samples(self, full_policy,
                                                       ops):
        """Charging occupancy on change records exactly what sampling
        every structure once per cycle records, read at any point."""
        engine = make_engine(sizing=SizingMode.CUSTOM,
                             full_policy=full_policy, dcache_entries=3,
                             icache_entries=2, itlb_entries=4,
                             dtlb_entries=1)
        structures = engine.all_structures()
        resident = [[] for _ in structures]
        reference = [{} for _ in structures]

        def check():
            for structure, counts in zip(structures, reference):
                assert list(structure.occupancy_histogram.items()) == \
                    sorted(counts.items())

        for op in ops:
            kind = op[0]
            if kind == "fill":
                _, which, key = op
                entry = structures[which].fill(key, key, None, 0)
                if entry is not None:
                    resident[which].append(entry)
            elif kind in ("release", "annul"):
                _, which, pick = op
                if resident[which]:
                    entry = resident[which].pop(pick % len(resident[which]))
                    if kind == "release":
                        structures[which].release_committed(entry)
                    else:
                        structures[which].annul(entry)
            elif kind == "sample":
                engine.sample_occupancy(op[1])
                for _ in range(op[1]):
                    for structure, counts in zip(structures, reference):
                        occupancy = structure.occupancy()
                        counts[occupancy] = counts.get(occupancy, 0) + 1
            else:
                check()
        check()
