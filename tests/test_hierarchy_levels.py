"""The hierarchy's bound level tuples against a per-cache reference.

:class:`MemoryHierarchy` walks L1(side)/L2/L3 through the per-set dicts
it binds once (``MemoryHierarchy.levels``) instead of calling
:class:`Cache` methods level by level.  Here two hierarchies of one
geometry see the same fills, touches and flushes; on one every query
and installation runs through the hierarchy, on the other through a
reference that goes one cache at a time: ``Cache.contains``,
``Cache.fill``, plus the per-cache lookup, flush and recency refresh
below (the reference model; ``Cache`` itself has no such methods).  Every answer must agree, and so must the
hit/miss/fill/eviction/flush counters and the contents
(``Cache.snapshot()``, LRU order included) at the end.

Geometries: the default (Table II), ``little-core``, whose levels have
64/512/2048 sets, and the default with an L1I hit latency that differs
from the L1D's, so the per-side latency table is exercised.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safespec import SafeSpecConfig, SafeSpecEngine
from repro.memory.hierarchy import (PAGE_TABLE_BASE, HierarchyConfig,
                                    MemoryHierarchy)
from repro.memory.paging import PAGE_SHIFT, PAGE_SIZE, PageTable
from repro.spec import get_spec

_DEFAULT = HierarchyConfig()
CONFIGS = {
    "default": _DEFAULT,
    "little-core": get_spec("little-core").hierarchy,
    "split-l1-latency": dataclasses.replace(
        _DEFAULT, l1i=dataclasses.replace(_DEFAULT.l1i, hit_latency=2)),
}
LEVELS = ("l1i", "l1d", "l2", "l3")

# Lines that alias in every level of both geometries (a multiple of the
# largest set count apart) plus neighbours in other sets, so fills evict
# and LRU order matters.
_LINES = [(s + 2048 * way) * 64 for s in (0, 64) for way in range(18)]
# Every line above sits on an identity-mapped page; this one does not.
MAPPED_BYTES = max(_LINES) + PAGE_SIZE
UNMAPPED = MAPPED_BYTES + PAGE_SIZE
addresses = st.sampled_from(_LINES).flatmap(
    lambda line: st.integers(line, line + 63))
vaddrs = st.one_of(addresses, st.just(UNMAPPED))
# Presence and probe queries cover every line, one address in each.
PROBED = [line + 8 for line in _LINES]
sides = st.sampled_from(("i", "d"))
ops = st.one_of(
    st.tuples(st.just("install"), sides, addresses),
    st.tuples(st.just("fill"), st.sampled_from(LEVELS), addresses),
    st.tuples(st.just("touch"), st.sampled_from(LEVELS), addresses),
    st.tuples(st.just("flush"), addresses),
    st.tuples(st.just("fill_walk"), vaddrs),
    st.tuples(st.just("fill_tlb"), sides, vaddrs),
    st.tuples(st.just("hit_level"), sides),
    st.tuples(st.just("refresh"), sides, addresses),
    st.tuples(st.just("refresh_walk"), vaddrs),
    st.tuples(st.just("lookup"), sides, addresses),
    st.tuples(st.just("spec_lookup"), sides, addresses),
    st.tuples(st.just("probe"), sides),
)


def _pair(config):
    """The hierarchy under test, with an engine whose shadow structures
    stay empty (an owned lookup sees committed state without perturbing
    it), and the reference hierarchy."""
    table = PageTable()
    table.map_range(0, MAPPED_BYTES)
    hierarchy = MemoryHierarchy(config, page_table=table)
    engine = SafeSpecEngine(SafeSpecConfig(), hierarchy)
    return hierarchy, MemoryHierarchy(config, page_table=table), engine


def _touch(cache, addr):
    """Timing-path lookup of one cache: LRU update and hit/miss count."""
    line = cache.line_address(addr)
    cache_set = cache._sets[cache.set_index(addr)]
    if line in cache_set:
        cache_set.move_to_end(line)
        cache._hits.value += 1
        return True
    cache._misses.value += 1
    return False


def _flush(cache, addr):
    """clflush of one cache."""
    line = cache.line_address(addr)
    cache_set = cache._sets.get(cache.set_index(addr), ())
    if line in cache_set:
        del cache_set[line]
        cache._flushes.value += 1


def _refresh(cache, addr):
    """Move the line holding ``addr`` to MRU if present; no counts."""
    cache_set = cache._sets.get(cache.set_index(addr), {})
    line = cache.line_address(addr)
    if line in cache_set:
        cache_set.move_to_end(line)


def _side_levels(hierarchy, side):
    l1 = hierarchy.l1i if side == "i" else hierarchy.l1d
    return (("L1", l1), ("L2", hierarchy.l2), ("L3", hierarchy.l3))


def _walk_lines(hierarchy, vaddr):
    vpn = vaddr >> PAGE_SHIFT
    return [hierarchy.l1d.line_address(
        PAGE_TABLE_BASE + (level << 36) + (vpn >> (9 * level)) * 8)
        for level in range(hierarchy.page_table.walk_levels)]


def _ref_hit_level(hierarchy, side, paddr):
    for name, cache in _side_levels(hierarchy, side):
        if cache.contains(paddr):
            return name
    return None


def _ref_refresh(hierarchy, side, addr):
    for _, cache in _side_levels(hierarchy, side):
        _refresh(cache, addr)


def _ref_install(hierarchy, side, line):
    for _, cache in _side_levels(hierarchy, side):
        cache.fill(line)


def _ref_lookup(hierarchy, side, line):
    for name, cache in _side_levels(hierarchy, side):
        if _touch(cache, line):
            return name
    return "MEM"


def _ref_latency(hierarchy, side, level):
    config = hierarchy.config
    l1 = config.l1i if side == "i" else config.l1d
    return {"L1": l1.hit_latency, "L2": config.l2.hit_latency,
            "L3": config.l3.hit_latency, None: config.memory_latency}[level]


def _ref_probe(hierarchy, side, vaddr):
    translation = hierarchy.page_table.lookup(vaddr)
    if translation is None:
        return hierarchy.config.memory_latency
    tlb = hierarchy.itlb if side == "i" else hierarchy.dtlb
    if tlb.contains(vaddr >> PAGE_SHIFT):
        latency = tlb.config.hit_latency
    else:
        latency = sum(_ref_latency(hierarchy, "d",
                                   _ref_hit_level(hierarchy, "d", line))
                      for line in _walk_lines(hierarchy, vaddr))
    level = _ref_hit_level(hierarchy, side, translation.physical(vaddr))
    return latency + _ref_latency(hierarchy, side, level)


def _contents(hierarchy):
    return {name: (cache.snapshot(), cache.hits, cache.misses,
                   cache.stats.counter("flushes").value,
                   cache.stats.as_dict())
            for name, cache in ((name, getattr(hierarchy, name))
                                for name in LEVELS)}


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
@settings(max_examples=40, deadline=None)
@given(st.permutations(_LINES), st.lists(vaddrs, min_size=1, max_size=12),
       st.lists(ops, min_size=10, max_size=50))
def test_bound_levels_match_cache_methods(config, warm, walked, program):
    hierarchy, reference, _engine = _pair(config)
    # Warm start: every set of every level holds several lines, in a
    # drawn LRU order, and so do the page-table lines of a few walks, so
    # each refresh or lookup below has an order to keep or to break.
    for index, line in enumerate(warm):
        hierarchy.install_line("id"[index % 2], line)
        _ref_install(reference, "id"[index % 2], line)
    for vaddr in walked:
        for line in _walk_lines(reference, vaddr):
            hierarchy.install_line("d", line)
            _ref_install(reference, "d", line)
    for op, *args in program:
        if op == "fill":
            level, addr = args
            for h in (hierarchy, reference):
                getattr(h, level).fill(addr)
        elif op == "touch":
            level, addr = args
            for h in (hierarchy, reference):
                _touch(getattr(h, level), addr)
        elif op == "install":
            side, addr = args
            hierarchy.install_line(side, addr)
            _ref_install(reference, side, addr)
        elif op == "flush":
            hierarchy.clflush(args[0])
            for name in LEVELS:
                _flush(getattr(reference, name), args[0])
        elif op == "fill_walk":
            for line in _walk_lines(reference, args[0]):
                hierarchy.install_line("d", line)
                _ref_install(reference, "d", line)
        elif op == "fill_tlb":
            side, vaddr = args
            translation = hierarchy.page_table.lookup(vaddr)
            if translation is not None:
                for h in (hierarchy, reference):
                    h.install_translation(side, translation)
        elif op == "hit_level":
            side, = args
            assert [hierarchy.committed_hit_level(side, a) for a in PROBED] \
                == [_ref_hit_level(reference, side, a) for a in PROBED]
        elif op == "refresh":
            hierarchy.refresh_line_recency(*args)
            _ref_refresh(reference, *args)
        elif op == "refresh_walk":
            hierarchy.refresh_walk_lines(args[0])
            for line in _walk_lines(reference, args[0]):
                _ref_refresh(reference, "d", line)
        elif op == "lookup":
            side, addr = args
            line = addr & ~63
            assert hierarchy._lookup_line_level(side, line, None) == \
                _ref_lookup(reference, side, line)
        elif op == "spec_lookup":
            side, addr = args
            line = addr & ~63
            assert hierarchy._lookup_line_level(side, line, 1) == \
                (_ref_hit_level(reference, side, line) or "MEM")
        else:
            side, = args
            assert hierarchy.probe_latencies(side, PROBED + [UNMAPPED]) == \
                [_ref_probe(reference, side, v)
                 for v in PROBED + [UNMAPPED]]
    assert _contents(hierarchy) == _contents(reference)
