"""Unit tests for the set-associative cache model.

A cache's timing-path lookup (LRU update, hit/miss counts) is the
memory hierarchy's walk over its levels; those tests put the small
cache under test in a hierarchy's L1D and look up through the walk.
"""

import pytest

from repro.errors import ConfigError
from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.paging import PageTable


def small_cache(assoc=2, sets=4, line=64):
    return Cache(CacheConfig("test", sets * assoc * line, assoc, line, 4))


def small_l1d(assoc=2, sets=4):
    """A hierarchy whose L1D is a small cache; returns (hierarchy, L1D)."""
    config = HierarchyConfig(
        l1d=CacheConfig("test", sets * assoc * 64, assoc, 64, 4))
    hierarchy = MemoryHierarchy(config, page_table=PageTable())
    return hierarchy, hierarchy.l1d


def touch(hierarchy, addr):
    """An unowned (committed-path) lookup; True on an L1D hit."""
    line = addr & hierarchy.line_mask
    return hierarchy._lookup_line_level("d", line, None) == "L1"


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig("c", 32 * 1024, 8, 64, 4)
        assert cfg.num_sets == 64
        assert cfg.num_lines == 512

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheConfig("c", 1024, 2, 48, 4)

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("c", 1000, 2, 64, 4)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ConfigError):
            CacheConfig("c", 1024, 3, 64, 4)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig("c", 1024, 2, 64, 0)


class TestAddressHelpers:
    def test_line_address_masks_offset(self):
        cache = small_cache()
        assert cache.line_address(0x1234) == 0x1200

    def test_set_index_wraps(self):
        cache = small_cache(assoc=2, sets=4)
        assert cache.set_index(0) == cache.set_index(4 * 64)


class TestHitMissFill:
    def test_cold_miss(self):
        hierarchy, cache = small_l1d()
        assert not touch(hierarchy, 0x1000)
        assert cache.misses == 1

    def test_fill_then_hit(self):
        hierarchy, cache = small_l1d()
        cache.fill(0x1000)
        assert touch(hierarchy, 0x1000)
        assert cache.hits == 1

    def test_fill_is_line_granular(self):
        hierarchy, cache = small_l1d()
        cache.fill(0x1000)
        assert touch(hierarchy, 0x1030)  # same 64B line
        assert cache.contains(0x1030)

    def test_contains_does_not_count(self):
        cache = small_cache()
        cache.fill(0x1000)
        cache.contains(0x1000)
        assert cache.accesses == 0

    def test_miss_rate(self):
        hierarchy, cache = small_l1d()
        touch(hierarchy, 0x1000)
        cache.fill(0x1000)
        touch(hierarchy, 0x1000)
        assert cache.miss_rate() == pytest.approx(0.5)

    def test_empty_miss_rate(self):
        assert small_cache().miss_rate() == 0.0


class TestLru:
    def test_eviction_order_is_lru(self):
        hierarchy, cache = small_l1d(assoc=2, sets=1)
        cache.fill(0 * 64)
        cache.fill(1 * 64)
        touch(hierarchy, 0 * 64)     # 0 becomes MRU
        victim = cache.fill(2 * 64)  # evicts 1
        assert victim == 1 * 64
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_refill_refreshes_lru(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(0)
        cache.fill(64)
        cache.fill(0)                # refresh, no eviction
        victim = cache.fill(128)
        assert victim == 64

    def test_probe_set_lru_order(self):
        hierarchy, cache = small_l1d(assoc=2, sets=1)
        cache.fill(0)
        cache.fill(64)
        assert cache.snapshot()[0] == (0, 64)
        touch(hierarchy, 0)
        assert cache.snapshot()[0] == (64, 0)


class TestFlush:
    def test_flush_line(self):
        hierarchy, cache = small_l1d()
        hierarchy.install_line("d", 0x1000)
        hierarchy.clflush(0x1000)
        assert not cache.contains(0x1000)
        assert cache.stats.counter("flushes").value == 1

    def test_flush_absent_line(self):
        hierarchy, cache = small_l1d()
        hierarchy.clflush(0x1000)
        assert cache.stats.counter("flushes").value == 0

    def test_flush_all(self):
        cache = small_cache()
        cache.fill(0)
        cache.fill(4096)
        cache.flush_all()
        assert cache.occupancy() == 0


class TestOccupancy:
    def test_occupancy_counts_lines(self):
        cache = small_cache()
        cache.fill(0)
        cache.fill(64)
        cache.fill(64)  # duplicate
        assert cache.occupancy() == 2

    def test_occupancy_bounded_by_capacity(self):
        cache = small_cache(assoc=2, sets=2)
        for i in range(100):
            cache.fill(i * 64)
        assert cache.occupancy() <= 4


class TestLazySets:
    """Sets are created on first use by the timing path, never by
    construction or inspection."""

    @pytest.fixture
    def allocations(self, monkeypatch):
        import repro.memory.cache as cache_module

        made = []

        class CountingOrderedDict(cache_module.OrderedDict):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cache_module, "OrderedDict", CountingOrderedDict)
        return made

    def test_fresh_machine_allocates_no_sets(self, allocations):
        from repro.machine import Machine

        machine = Machine.from_spec()
        hier = machine.hierarchy
        assert allocations == []
        for cache in (hier.l1i, hier.l1d, hier.l2, hier.l3):
            assert cache.occupancy() == 0

    def test_inspection_allocates_no_sets(self, allocations):
        cache = small_cache(assoc=2, sets=4)
        for addr in range(0, 4 * 64, 64):
            assert not cache.contains(addr)
        assert cache.snapshot() == [()] * 4
        assert cache.occupancy() == 0
        assert allocations == []

    def test_fill_allocates_only_its_set(self, allocations):
        cache = small_cache(assoc=2, sets=4)
        cache.fill(0x40)
        assert len(allocations) == 1
        assert cache.snapshot() == [(), (0x40,), (), ()]

    def test_snapshot_restore_round_trip(self):
        cache = small_cache(assoc=2, sets=4)
        for addr in (0x000, 0x100, 0x040):
            cache.fill(addr)
        cache.fill(0x000)            # present: only moves to MRU
        dump = cache.snapshot()
        other = small_cache(assoc=2, sets=4)
        other.fill(0x0C0)
        indices = [index for index, lines in enumerate(dump) if lines]
        other.restore(indices, [dump[index] for index in indices])
        assert other.snapshot() == dump
        assert not other.contains(0x0C0)
        # LRU order survives: 0x100 is the oldest line of set 0.
        other.fill(0x200)
        assert other.contains(0x000)
        assert not other.contains(0x100)

    def test_restore_rejects_over_full_set(self):
        cache = small_cache(assoc=2, sets=4)
        cache.fill(0x040)
        with pytest.raises(ConfigError, match="test: snapshot set 0 holds 3"):
            cache.restore([0], [(0x000, 0x100, 0x200)])
        # Nothing was replaced.
        assert cache.snapshot() == [(), (0x040,), (), ()]

    def test_restore_rejects_sets_outside_the_cache(self):
        cache = small_cache(assoc=2, sets=4)
        cache.fill(0x040)
        with pytest.raises(ConfigError, match=r"test: snapshot names sets "
                           r"outside 0\.\.3"):
            cache.restore([4], [(0x100,)])
        # Nothing was replaced.
        assert cache.snapshot() == [(), (0x040,), (), ()]

    def test_restore_rejects_a_set_count_mismatch(self):
        cache = small_cache(assoc=2, sets=4)
        cache.fill(0x040)
        with pytest.raises(ConfigError, match="test: snapshot names 2 sets"):
            cache.restore([0, 2], [(0x000,)])
        # Nothing was replaced.
        assert cache.snapshot() == [(), (0x040,), (), ()]
