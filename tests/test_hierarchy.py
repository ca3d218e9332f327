"""Unit tests for the memory hierarchy (translation, access, probing)."""

import pytest

from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.paging import (PAGE_SIZE, PagePermissions, PageTable,
                                 PrivilegeLevel)


@pytest.fixture
def hierarchy():
    pt = PageTable()
    pt.map_range(0x1000, 16 * PAGE_SIZE)
    pt.map_page(0x100, permissions=PagePermissions(supervisor_only=True))
    return MemoryHierarchy(page_table=pt)


class TestTranslationPath:
    def test_cold_access_walks(self, hierarchy):
        result = hierarchy.data_access(
            0x1000, is_write=False, privilege=PrivilegeLevel.USER)
        assert not result.tlb_hit
        assert result.walk_latency > 0
        assert hierarchy.stats.counter("page_walks").value == 1

    def test_second_access_hits_tlb(self, hierarchy):
        hierarchy.data_access(0x1000, is_write=False,
                              privilege=PrivilegeLevel.USER)
        result = hierarchy.data_access(0x1008, is_write=False,
                                       privilege=PrivilegeLevel.USER)
        assert result.tlb_hit

    def test_unmapped_faults(self, hierarchy):
        result = hierarchy.data_access(0xDEAD0000, is_write=False,
                                       privilege=PrivilegeLevel.USER)
        assert result.fault == "unmapped"

    def test_supervisor_page_faults_for_user_but_completes(self, hierarchy):
        """P1: the access completes (fills happen) and the fault is only
        *reported*, to be raised at commit time."""
        kaddr = 0x100 * PAGE_SIZE
        result = hierarchy.data_access(kaddr, is_write=False,
                                       privilege=PrivilegeLevel.USER)
        assert result.fault == "permission"
        assert result.paddr == kaddr
        assert hierarchy.l1d.contains(kaddr)  # the leak the paper closes

    def test_supervisor_access_allowed_for_supervisor(self, hierarchy):
        kaddr = 0x100 * PAGE_SIZE
        result = hierarchy.data_access(kaddr, is_write=False,
                                       privilege=PrivilegeLevel.SUPERVISOR)
        assert result.fault is None


class TestCachePath:
    def test_cold_miss_goes_to_memory(self, hierarchy):
        result = hierarchy.data_access(0x1000, is_write=False,
                                       privilege=PrivilegeLevel.USER)
        assert result.hit_level == "MEM"
        assert result.latency >= hierarchy.config.memory_latency

    def test_baseline_fill_makes_l1_hit(self, hierarchy):
        hierarchy.data_access(0x1000, is_write=False,
                              privilege=PrivilegeLevel.USER)
        result = hierarchy.data_access(0x1000, is_write=False,
                                       privilege=PrivilegeLevel.USER)
        assert result.hit_level == "L1"
        assert result.latency < 20

    def test_inclusive_fill(self, hierarchy):
        hierarchy.install_line("d", 0x2000)
        assert hierarchy.l1d.contains(0x2000)
        assert hierarchy.l2.contains(0x2000)
        assert hierarchy.l3.contains(0x2000)

    def test_l2_hit_promotes_into_l1(self, hierarchy):
        hierarchy.install_line("d", 0x2000)
        # Evict it from L1D alone: fill its set with other lines.
        l1d = hierarchy.config.l1d
        stride = l1d.num_sets * l1d.line_bytes
        for way in range(1, l1d.associativity + 1):
            hierarchy.l1d.fill(0x2000 + way * stride)
        assert not hierarchy.l1d.contains(0x2000)
        result = hierarchy.data_access(0x2000, is_write=False,
                                       privilege=PrivilegeLevel.USER)
        assert result.hit_level == "L2"
        assert hierarchy.l1d.contains(0x2000)

    def test_fetch_path_uses_l1i(self, hierarchy):
        hierarchy.fetch_access(0x1000, privilege=PrivilegeLevel.USER)
        assert hierarchy.l1i.contains(0x1000)
        assert not hierarchy.l1d.contains(0x1000)


class TestClflushAndProbes:
    def test_clflush_evicts_all_levels(self, hierarchy):
        hierarchy.install_line("d", 0x2000)
        hierarchy.clflush(0x2000)
        assert hierarchy.committed_hit_level("d", 0x2000) is None

    def test_probe_latency_distinguishes_hit_from_miss(self, hierarchy):
        hierarchy.data_access(0x1000, is_write=False,
                              privilege=PrivilegeLevel.USER)
        hit = hierarchy.probe_data_latency(0x1000)
        miss = hierarchy.probe_data_latency(0x1000 + 8 * PAGE_SIZE)
        assert hit < 100 < miss

    def test_probe_is_non_perturbing(self, hierarchy):
        before = hierarchy.l1d.accesses
        hierarchy.probe_data_latency(0x1000)
        assert hierarchy.l1d.accesses == before

    def test_translation_probe_tlb_hit_is_fast(self, hierarchy):
        hierarchy.data_access(0x1000, is_write=False,
                              privilege=PrivilegeLevel.USER)
        assert hierarchy.probe_translation_latency("d", 0x1000) <= 2

    def test_translation_probe_miss_requires_walk(self, hierarchy):
        assert hierarchy.probe_translation_latency(
            "d", 0x1000 + 10 * PAGE_SIZE) >= 4


class TestPerSideL1Latency:
    """L1I and shadow-i hits cost the L1I hit latency, d-side hits the
    L1D's, when the two differ."""

    @pytest.fixture
    def split(self):
        from repro.memory.cache import CacheConfig
        pt = PageTable()
        pt.map_range(0x1000, 16 * PAGE_SIZE)
        config = HierarchyConfig(l1i=CacheConfig("L1I", 32 * 1024, 8, 64, 2))
        return MemoryHierarchy(config, page_table=pt)

    def test_l1i_hit_fetch_and_probe(self, split):
        itlb_hit = split.config.itlb.hit_latency
        split.fetch_access(0x1000, privilege=PrivilegeLevel.USER)
        result = split.fetch_access(0x1000, privilege=PrivilegeLevel.USER)
        assert (result.hit_level, result.tlb_hit) == ("L1", True)
        assert result.latency == itlb_hit + 2
        assert split.probe_fetch_latency(0x1000) == itlb_hit + 2
        assert split.level_latency("L1", "i") == 2
        assert split.level_latency("shadow", "i") == 2

    def test_shadow_i_hit_costs_l1i_latency(self, split):
        from repro.core.safespec import SafeSpecConfig, SafeSpecEngine
        # The hierarchy holds its engine weakly: keep it alive here.
        engine = SafeSpecEngine(SafeSpecConfig(), split)
        split.fetch_access(0x1000, privilege=PrivilegeLevel.USER, owner=1)
        result = split.fetch_access(0x1000, privilege=PrivilegeLevel.USER,
                                    owner=1)
        assert engine.shadow_icache.occupancy() == 1
        assert result.hit_level == "shadow"
        assert result.latency == split.config.itlb.hit_latency + 2

    def test_d_side_keeps_l1d_latency(self, split):
        split.data_access(0x1000, is_write=False,
                          privilege=PrivilegeLevel.USER)
        result = split.data_access(0x1000, is_write=False,
                                   privilege=PrivilegeLevel.USER)
        assert result.hit_level == "L1"
        assert result.latency == split.config.dtlb.hit_latency + 4
        assert split.probe_data_latency(0x1000) == \
            split.config.dtlb.hit_latency + 4
        assert split.level_latency("L1") == 4

    def test_unknown_level_and_side_rejected(self, split):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            split.level_latency("L4")
        with pytest.raises(ConfigError):
            split.committed_hit_level("x", 0x1000)


class TestStoreCommit:
    def test_commit_store_writes_memory_and_fills(self, hierarchy):
        hierarchy.commit_store(0x2000, 77)
        assert hierarchy.memory.read_word(0x2000) == 77
        assert hierarchy.l1d.contains(0x2000)


class TestConfigValidation:
    def test_mismatched_line_sizes_rejected(self):
        from repro.errors import ConfigError
        from repro.memory.cache import CacheConfig
        with pytest.raises(ConfigError):
            HierarchyConfig(l1d=CacheConfig("L1D", 32 * 1024, 8, 128, 4))
