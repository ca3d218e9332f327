"""The hierarchy's bound level tuples against a Cache-method reference.

:class:`MemoryHierarchy` walks L1(side)/L2/L3 through the per-set dicts
it binds once (``MemoryHierarchy.levels``) instead of calling the
:class:`Cache` methods level by level.  Here two hierarchies of one
geometry see the same fills, touches and flushes; on one every query
runs through the hierarchy, on the other through a reference written
with ``Cache.contains``/``Cache.refresh``/``Cache.touch``.  Every
answer must agree, and so must the hit/miss counters and the contents
(``Cache.snapshot()``, LRU order included) at the end.

Geometries: the default (Table II), ``little-core``, whose levels have
64/512/2048 sets, and the default with an L1I hit latency that differs
from the L1D's, so the per-side latency table is exercised.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

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


class _EmptyShadow:
    """A speculative sink holding nothing: lookups see committed state
    without perturbing it."""

    speculative = True

    def lookup_line(self, side, line_addr):
        return False


def _pair(config):
    table = PageTable()
    table.map_range(0, MAPPED_BYTES)
    return (MemoryHierarchy(config, page_table=table),
            MemoryHierarchy(config, page_table=table))


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
        cache.refresh(addr)


def _ref_lookup(hierarchy, side, line):
    for name, cache in _side_levels(hierarchy, side):
        if cache.touch(line):
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
    return {name: (getattr(hierarchy, name).snapshot(),
                   getattr(hierarchy, name).hits,
                   getattr(hierarchy, name).misses) for name in LEVELS}


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
@settings(max_examples=40, deadline=None)
@given(st.permutations(_LINES), st.lists(vaddrs, min_size=1, max_size=12),
       st.lists(ops, min_size=10, max_size=50))
def test_bound_levels_match_cache_methods(config, warm, walked, program):
    hierarchy, reference = _pair(config)
    # Warm start: every set of every level holds several lines, in a
    # drawn LRU order, and so do the page-table lines of a few walks, so
    # each refresh or lookup below has an order to keep or to break.
    for index, line in enumerate(warm):
        for h in (hierarchy, reference):
            h.install_line("id"[index % 2], line)
    for vaddr in walked:
        for h in (hierarchy, reference):
            for line in _walk_lines(h, vaddr):
                h.install_line("d", line)
    for op, *args in program:
        if op in ("fill", "touch"):
            level, addr = args
            for h in (hierarchy, reference):
                getattr(getattr(h, level), op)(addr)
        elif op == "install":
            side, addr = args
            for h in (hierarchy, reference):
                h.install_line(side, addr & ~63)
        elif op == "flush":
            for h in (hierarchy, reference):
                h.clflush(args[0])
        elif op == "fill_walk":
            for h in (hierarchy, reference):
                for line in _walk_lines(h, args[0]):
                    h.install_line("d", line)
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
            assert hierarchy._lookup_line_level(
                side, line, hierarchy.default_sink()) == \
                _ref_lookup(reference, side, line)
        elif op == "spec_lookup":
            side, addr = args
            line = addr & ~63
            assert hierarchy._lookup_line_level(
                side, line, _EmptyShadow()) == \
                (_ref_hit_level(reference, side, line) or "MEM")
        else:
            side, = args
            assert hierarchy.probe_latencies(side, PROBED + [UNMAPPED]) == \
                [_ref_probe(reference, side, v)
                 for v in PROBED + [UNMAPPED]]
    assert _contents(hierarchy) == _contents(reference)
