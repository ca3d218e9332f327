"""``MemoryHierarchy.retire_access`` against the owned round trip.

The fast backend retires its committed SafeSpec accesses through
``retire_access``, which must leave exactly what an owned access
followed by ``engine.on_commit`` and the commit-time refreshes of its
TLB entry, walk lines and line leaves: every cache and TLB set in LRU
order, every hit/miss/fill/eviction counter, the walk counter, every
shadow structure's fill/drop/block/commit counters and occupancy
histogram, and the engine's ``promotions``.

Two machines run the same seeded access sequence, one through the round
trip and one through ``retire_access``, on tiny caches and TLBs (so
fills evict) with tiny shadow structures under DROP and BLOCK (so fills
fall past capacity), interleaved with owned accesses of other in-flight
owners that are later promoted or annulled (so the shadow is not
empty).  The pages include a non-identity mapping, a page whose lines
alias its own page-walk lines, and pages each access kind faults on.
"""

import random

import pytest

from repro.core.policy import CommitPolicy
from repro.core.safespec import SafeSpecConfig, SizingMode
from repro.core.shadow import FullPolicy
from repro.machine import Machine
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import (PAGE_TABLE_BASE, AccessResult,
                                    HierarchyConfig)
from repro.memory.paging import PagePermissions, PrivilegeLevel
from repro.memory.tlb import TLBConfig

USER = PrivilegeLevel.USER
TINY = HierarchyConfig(
    l1i=CacheConfig("L1I", 256, 2, 64, 4),
    l1d=CacheConfig("L1D", 256, 2, 64, 4),
    l2=CacheConfig("L2", 1024, 2, 64, 12),
    l3=CacheConfig("L3", 4096, 4, 64, 44),
    itlb=TLBConfig("iTLB", 3, 1),
    dtlb=TLBConfig("dTLB", 3, 1),
)
# vpn -> (ppn, permissions).  vpn 0x30's page holds its own level-0
# page-walk line, so one access there fills the same line twice.
ALIAS_VPN = 0x30
ALIAS_PPN = (PAGE_TABLE_BASE + ALIAS_VPN * 8) >> 12
ALIAS_LINE = ((PAGE_TABLE_BASE + ALIAS_VPN * 8) & 4095) >> 6
PAGES = {
    0x10: (0x10, PagePermissions()),
    0x11: (0x11, PagePermissions()),
    0x12: (0x55, PagePermissions()),
    0x13: (0x56, PagePermissions()),
    0x14: (0x14, PagePermissions()),
    ALIAS_VPN: (ALIAS_PPN, PagePermissions()),
    0x20: (0x20, PagePermissions(supervisor_only=True)),
    0x21: (0x21, PagePermissions(writable=False)),
    0x22: (0x22, PagePermissions(executable=False)),
}
VPNS = sorted(PAGES) + [0x40]      # vpn 0x40 is unmapped


def _machine(full_policy, entries, geometry):
    machine = Machine(
        policy=CommitPolicy.WFC, hierarchy_config=geometry,
        safespec_config=SafeSpecConfig(
            policy=CommitPolicy.WFC, sizing=SizingMode.CUSTOM,
            full_policy=full_policy, dcache_entries=entries,
            icache_entries=entries, itlb_entries=entries,
            dtlb_entries=entries))
    for vpn, (ppn, permissions) in PAGES.items():
        machine.page_table.map_page(vpn, ppn, permissions)
    return machine


def _state(machine):
    hierarchy = machine.hierarchy
    engine = machine.engine
    caches = [hierarchy.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.l3]
    tlbs = [hierarchy.itlb, hierarchy.dtlb]
    return {
        "caches": [cache.snapshot() for cache in caches],
        "tlbs": [tlb.snapshot() for tlb in tlbs],
        "stats": [sorted(component.stats.as_dict().items())
                  for component in caches + tlbs + [hierarchy]],
        "engine": engine.invariant_stats(),
        "occupancy": [sorted(s.occupancy_histogram.items())
                      for s in engine.all_structures()],
        "shadow": [sorted(s.entries_snapshot())
                   for s in engine.all_structures()],
    }


def _round_trip(machine, side, vaddr, write, line, seq):
    """The owned access, its promotion and the commit-time refreshes."""
    hierarchy = machine.hierarchy
    if side == "i":
        result = hierarchy.fetch_access(vaddr, privilege=USER, owner=seq)
    elif line:
        result = hierarchy.data_access(vaddr, is_write=write,
                                       privilege=USER, owner=seq)
    else:
        result = AccessResult(latency=0)
        translation = hierarchy.translate("d", vaddr, seq, result)
        result.paddr = translation.physical(vaddr)
    assert result.fault is None
    machine.engine.on_commit(seq)
    hierarchy.refresh_committed_translation(side, vaddr)
    if not result.tlb_hit:
        hierarchy.refresh_walk_lines(vaddr)
    if result.hit_level in ("L1", "L2", "L3"):
        hierarchy.refresh_line_recency(side, result.line_addr)
    return result.latency, result.hit_level, result.paddr


@pytest.mark.parametrize("entries", [1, 2, 16])
@pytest.mark.parametrize("full_policy", list(FullPolicy),
                         ids=lambda p: p.value)
def test_retire_access_matches_round_trip(full_policy, entries):
    _check_round_trip(full_policy, entries, TINY)


@pytest.mark.parametrize("entries", [1, 2, 16])
@pytest.mark.parametrize("full_policy", list(FullPolicy),
                         ids=lambda p: p.value)
def test_retire_access_matches_round_trip_table2(full_policy, entries):
    # The default Table II geometry: 64-entry TLBs, 4-level walks.
    _check_round_trip(full_policy, entries, HierarchyConfig())


def _check_round_trip(full_policy, entries, geometry):
    rng = random.Random(entries * 7 + len(full_policy.value))
    reference = _machine(full_policy, entries, geometry)
    retiring = _machine(full_policy, entries, geometry)
    in_flight = []
    seq = 0
    retired = faulted = 0
    for _ in range(600):
        seq += 1
        vpn = ALIAS_VPN if rng.random() < 0.2 else rng.choice(VPNS)
        # On the aliasing page, the line its level-0 walk line sits on.
        line = ALIAS_LINE if vpn == ALIAS_VPN else rng.randrange(64)
        vaddr = (vpn << 12) | (line << 6) | rng.randrange(0, 64, 8)
        kind = rng.random()
        if kind < 0.15:
            # Another owner's speculative access, left in the shadow.
            for machine in (reference, retiring):
                machine.hierarchy.data_access(vaddr, is_write=False,
                                              privilege=USER, owner=seq)
            in_flight.append(seq)
            continue
        if kind < 0.25 and in_flight:
            owner = in_flight.pop(rng.randrange(len(in_flight)))
            squash = rng.random() < 0.5
            for machine in (reference, retiring):
                if squash:
                    machine.engine.on_squash(owner)
                else:
                    machine.engine.on_commit(owner)
            continue
        if kind < 0.3:
            # Evict the aliasing line and its translations, so the next
            # access there walks and misses.
            for machine in (reference, retiring):
                machine.hierarchy.clflush((ALIAS_PPN << 12)
                                          | (ALIAS_LINE << 6))
                machine.hierarchy.dtlb.invalidate(ALIAS_VPN)
                machine.hierarchy.itlb.invalidate(ALIAS_VPN)
            continue
        side, write, line = rng.choice([("d", False, True),
                                        ("d", True, False),
                                        ("i", False, True)])
        before = _state(retiring)
        outcome = retiring.hierarchy.retire_access(
            side, vaddr, privilege=USER, write=write, line=line)
        if outcome is None:
            faulted += 1
            assert _state(retiring) == before
            continue
        retired += 1
        assert outcome == _round_trip(reference, side, vaddr, write, line,
                                      seq)
        cycles = rng.randrange(1, 4)
        for machine in (reference, retiring):
            machine.engine.sample_occupancy(cycles)
        assert _state(retiring) == _state(reference)
    assert retired > 300 and faulted > 20
