"""Unit tests for the SafeSpec engine (promotion / annulment / sizing)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import CommitPolicy
from repro.core.safespec import (PERFORMANCE_SIZES, SafeSpecConfig,
                                 SafeSpecEngine, SizingMode)
from repro.core.shadow import FullPolicy
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.paging import (PagePermissions, PageTable, PrivilegeLevel,
                                 Translation)


def make_engine(policy=CommitPolicy.WFC, sizing=SizingMode.SECURE,
                **kwargs):
    config = SafeSpecConfig(policy=policy, sizing=sizing, **kwargs)
    page_table = PageTable()
    page_table.map_range(0x1000, 16 * 4096)
    hierarchy = MemoryHierarchy(page_table=page_table)
    return SafeSpecEngine(config, hierarchy)


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
        engine.record_line("d", 0x4000, 1)
        assert not engine.hierarchy.l1d.contains(0x4000)
        moved = engine.promote(1)
        assert moved == 1
        assert engine.hierarchy.l1d.contains(0x4000)
        assert engine.hierarchy.l3.contains(0x4000)
        assert engine.shadow_dcache.occupancy() == 0

    def test_annul_leaves_no_trace(self):
        engine = make_engine()
        engine.record_line("d", 0x4000, 1)
        engine.record_line("i", 0x5000, 1)
        engine.annul(1)
        assert not engine.hierarchy.l1d.contains(0x4000)
        assert not engine.hierarchy.l1i.contains(0x5000)
        assert engine.shadow_dcache.occupancy() == 0
        assert engine.shadow_icache.occupancy() == 0

    def test_translation_promoted_to_tlb(self):
        engine = make_engine()
        translation = Translation(vpn=5, ppn=5,
                                  permissions=PagePermissions())
        engine.record_translation("d", translation, 1)
        assert not engine.hierarchy.dtlb.contains(5)
        engine.promote(1)
        assert engine.hierarchy.dtlb.contains(5)

    def test_promote_is_idempotent(self):
        engine = make_engine()
        engine.record_line("d", 0x4000, 1)
        assert engine.promote(1) == 1
        assert engine.promote(1) == 0

    def test_sides_are_separate_structures(self):
        engine = make_engine()
        engine.record_line("i", 0x4000, 1)
        assert engine.shadow_icache.occupancy() == 1
        assert engine.shadow_dcache.occupancy() == 0

    def test_wfb_promotes_on_branch_resolution(self):
        engine = make_engine(policy=CommitPolicy.WFB)
        engine.record_line("d", 0x4000, 1)
        engine.on_branch_resolved(1)
        assert engine.hierarchy.l1d.contains(0x4000)
        # A squash after the promotion cannot take the line back; the
        # caller reports it as promoted, and the engine counts the hole.
        engine.on_squash(1, promoted=True)
        assert engine.hierarchy.l1d.contains(0x4000)
        assert engine.promoted_then_squashed == 1

    def test_wfc_ignores_branch_resolution(self):
        engine = make_engine(policy=CommitPolicy.WFC)
        engine.record_line("d", 0x4000, 1)
        engine.on_branch_resolved(1)
        assert not engine.hierarchy.l1d.contains(0x4000)
        engine.on_commit(1)
        assert engine.hierarchy.l1d.contains(0x4000)


class TestShadowOwner:
    """An owned hierarchy access reads and fills the engine's shadow
    structures; an unowned one only the committed state."""

    def test_owned_fill_lands_in_shadow(self):
        engine = make_engine()
        hierarchy = engine.hierarchy
        first = hierarchy.data_access(0x4000, is_write=False,
                                      privilege=PrivilegeLevel.USER, owner=1)
        assert first.hit_level == "MEM"
        assert not hierarchy.l1d.contains(0x4000)
        assert not hierarchy.dtlb.contains(0x4)
        # Another in-flight owner hits on the shadow line and entry.
        second = hierarchy.data_access(0x4008, is_write=False,
                                       privilege=PrivilegeLevel.USER, owner=2)
        assert (second.hit_level, second.tlb_hit) == ("shadow", True)
        engine.on_commit(1)
        assert hierarchy.l1d.contains(0x4000)
        assert hierarchy.dtlb.contains(0x4)

    def test_owned_translation_roundtrip(self):
        engine = make_engine()
        translation = Translation(vpn=3, ppn=9,
                                  permissions=PagePermissions())
        engine.record_translation("d", translation, 1)
        assert engine.shadow_dtlb.lookup(3).payload.ppn == 9
        assert engine.shadow_dtlb.lookup(4) is None
        assert engine.annul(1) == 1
        assert engine.shadow_dtlb.lookup(3) is None

    def test_unowned_access_fills_committed(self):
        engine = make_engine()
        hierarchy = engine.hierarchy
        hierarchy.data_access(0x4000, is_write=False,
                              privilege=PrivilegeLevel.USER)
        assert hierarchy.l1d.contains(0x4000)
        assert hierarchy.dtlb.contains(0x4)
        assert all(structure.occupancy() == 0
                   for structure in engine.all_structures())


class TestBlockPolicy:
    def test_block_policy_gates_admission(self):
        engine = make_engine(
            sizing=SizingMode.CUSTOM, full_policy=FullPolicy.BLOCK,
            dcache_entries=1, icache_entries=4, itlb_entries=4,
            dtlb_entries=4)
        assert engine.can_accept_data_access()
        engine.record_line("d", 0x4000, 1)
        assert not engine.can_accept_data_access()

    def test_drop_policy_always_admits(self):
        engine = make_engine(
            sizing=SizingMode.CUSTOM, full_policy=FullPolicy.DROP,
            dcache_entries=1, icache_entries=4, itlb_entries=4,
            dtlb_entries=4)
        engine.record_line("d", 0x4000, 1)
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
            engine.record_line("d", 0x4000, 1)
        bulk.sample_occupancy(count=4)
        for _ in range(4):
            single.sample_occupancy()
        for engine in (bulk, single):
            engine.record_line("d", 0x4040, 2)
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
                entry = structures[which].fill(key, key, None)
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
