"""The full memory hierarchy: L1I/L1D, unified L2/L3, TLBs, page walker.

Every access names an *owner*, which decides where the
micro-architectural state it produces lands:

* ``None`` — the baseline processor (and any micro-op SafeSpec has
  already promoted): lookups update replacement state and fills go
  straight into the committed caches/TLBs at access time (the leaky
  behaviour Spectre and Meltdown exploit).
* a micro-op sequence number — SafeSpec: lookups check that side's
  shadow structure first and only *inspect* committed state, never
  perturbing it (not even replacement/LRU state, per Section IV-A of
  the paper: "not even the cache replacement algorithm state is
  affected"); fills land in the shadow structure, owned by that
  sequence number, for the engine to promote or annul.

The shadow d-/i-cache and d-/i-TLB are bound per side beside the
committed levels when a :class:`~repro.core.safespec.SafeSpecEngine`
is built on the hierarchy.

The page walker issues one dependent access per page-table level through
the *data-cache path* with the same owner, mirroring the paper's
observation that "the page walker uses the load-store queue for these
accesses, and the protection introduced for the data caches ends up
protecting these structures as well".
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import MainMemory
from repro.memory.paging import (PAGE_SHIFT, PAGE_SIZE, PageTable,
                                 PrivilegeLevel, Translation)
from repro.memory.tlb import TLB, TLBConfig
from repro.statistics import Counter, StatRegistry

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.core.safespec import SafeSpecEngine

# Physical region where synthetic page-table entries live; one 8-byte entry
# per (level, vpn).  Chosen far above any address the workloads touch.
PAGE_TABLE_BASE = 0x4000_0000_0000


@dataclass(slots=True)
class AccessResult:
    """Outcome of one hierarchy access (timing + translation + fault)."""

    latency: int
    translation: Optional[Translation] = None
    fault: Optional[str] = None        # None | "unmapped" | "permission"
    hit_level: str = ""                # "shadow" | "L1" | "L2" | "L3" | "MEM"
    line_addr: int = -1
    paddr: int = -1
    tlb_hit: bool = False
    walk_latency: int = 0
    filled: bool = False               # a new line was produced by this access


# One committed cache level as the hierarchy's hot paths see it: its
# name, the Cache's own set-index -> LRU-ordered-lines dict, set mask,
# and hit and miss counters.  A plain tuple, because the loops below
# unpack it (a tuple subclass would take the slow unpacking path).
CacheLevel = Tuple[str, Dict[int, Dict[int, bool]], int, Counter, Counter]


def _cache_level(name: str, cache: Cache) -> CacheLevel:
    return (name, cache._sets, cache._set_mask, cache._hits, cache._misses)


# The same level as installation sees it (``Cache.fill``, unrolled): its
# sets, set mask, associativity, and fill and eviction counters.
FillLevel = Tuple[Dict[int, Dict[int, bool]], int, int, Counter, Counter]


def _fill_level(cache: Cache) -> FillLevel:
    return (cache._sets, cache._set_mask, cache._associativity,
            cache._fills, cache._evictions)


class _BySide(dict):
    """``{"i": ..., "d": ...}`` that rejects any other side."""

    __slots__ = ()

    def __missing__(self, side: str):
        raise ConfigError(f"side must be 'i' or 'd', got {side!r}")


@dataclass(frozen=True)
class HierarchyConfig:
    """Table II of the paper (Skylake-like memory system)."""

    l1i: CacheConfig = CacheConfig("L1I", 32 * 1024, 8, 64, 4)
    l1d: CacheConfig = CacheConfig("L1D", 32 * 1024, 8, 64, 4)
    l2: CacheConfig = CacheConfig("L2", 256 * 1024, 4, 64, 12)
    l3: CacheConfig = CacheConfig("L3", 2 * 1024 * 1024, 16, 64, 44)
    itlb: TLBConfig = TLBConfig("iTLB", 64, 1)
    dtlb: TLBConfig = TLBConfig("dTLB", 64, 1)
    memory_latency: int = 191

    def __post_init__(self) -> None:
        lines = {self.l1i.line_bytes, self.l1d.line_bytes,
                 self.l2.line_bytes, self.l3.line_bytes}
        if len(lines) != 1:
            raise ConfigError("all cache levels must share one line size")
        if self.memory_latency < 1:
            raise ConfigError(
                f"memory latency must be >= 1 cycle, "
                f"got {self.memory_latency}")


class MemoryHierarchy:
    """L1I/L1D + unified inclusive L2/L3 + TLBs + page walker + DRAM.

    The hierarchy never owns a default page table:
    :class:`~repro.machine.Machine` is the single owner and passes its
    table down explicitly (two independent defaults previously risked a
    machine and its hierarchy silently translating through different
    tables).  Standalone construction must supply one.
    """

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 page_table: Optional[PageTable] = None) -> None:
        if page_table is None:
            raise ConfigError(
                "MemoryHierarchy requires an explicit PageTable; "
                "Machine owns the default (pass machine.page_table, or "
                "construct a PageTable yourself for standalone use)")
        self.config = config or HierarchyConfig()
        self.page_table = page_table
        self.memory = MainMemory(self.config.memory_latency)
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.l3 = Cache(self.config.l3)
        self.itlb = TLB(self.config.itlb)
        self.dtlb = TLB(self.config.dtlb)
        self.stats = StatRegistry("hierarchy")
        self._walks = self.stats.counter("page_walks")
        self._page_walk_lines: Dict[int, Tuple[int, ...]] = {}
        # The raw cache layout, bound once.  Each side reaches L1(side),
        # L2 and L3, in that order; every level shares one line size
        # (HierarchyConfig checks it), so one line mask and set shift
        # index them all.  Presence checks, recency refreshes, the
        # baseline lookup and installation walk these tuples instead of
        # calling Cache methods level by level, and the fast backend
        # indexes the same dicts.  Sets and counters are mutated in
        # place, never rebound.
        self.line_mask = self.l1d._line_mask
        self.set_shift = self.l1d._set_shift
        l2 = _cache_level("L2", self.l2)
        l3 = _cache_level("L3", self.l3)
        self.levels = _BySide(i=(_cache_level("L1", self.l1i), l2, l3),
                              d=(_cache_level("L1", self.l1d), l2, l3))
        # Per side, each level's sets and set mask, flat: the presence
        # lookups and recency refreshes unroll the three levels on them.
        self._level_sets = _BySide(
            (side, tuple(x for _, sets, set_mask, _, _ in self.levels[side]
                         for x in (sets, set_mask)))
            for side in "id")
        # The same per side for installation, with each level's
        # associativity and fill and eviction counters.
        self._fill_sets = _BySide(
            (side, _fill_level(l1) + _fill_level(self.l2)
             + _fill_level(self.l3))
            for side, l1 in (("i", self.l1i), ("d", self.l1d)))
        # Every cache's sets, set mask and flush counter, for clflush.
        self._flush_levels = tuple(
            (cache._sets, cache._set_mask, cache._flushes)
            for cache in (self.l1d, self.l1i, self.l2, self.l3))
        # Shadow state beside the committed levels, bound by
        # :meth:`bind_shadow`: per side, the shadow cache's and shadow
        # TLB's key -> entries dicts.  Owned fills are recorded through
        # the engine, held by a proxy: an engine -> hierarchy ->
        # engine strong cycle would leave every machine to the cycle
        # collector.
        self._engine: Optional["SafeSpecEngine"] = None
        self._shadow_lines: Optional[_BySide] = None
        self._shadow_tlbs: Optional[_BySide] = None
        self._retiring: Optional[_BySide] = None
        # The page table's vpn -> translation dict (mutated in place).
        self._mappings = page_table._entries
        # Hit latency by level name, per side.  Shadow hits are charged
        # the L1 hit latency of their side, the paper's conservative
        # assumption (Section VI-A).
        cfg = self.config
        self._latency = _BySide(
            (side, {"L1": l1.hit_latency, "shadow": l1.hit_latency,
                    "L2": cfg.l2.hit_latency, "L3": cfg.l3.hit_latency,
                    "MEM": cfg.memory_latency})
            for side, l1 in (("i", cfg.l1i), ("d", cfg.l1d)))

    # ------------------------------------------------------------------
    # component helpers
    # ------------------------------------------------------------------

    @property
    def line_bytes(self) -> int:
        return self.config.l1d.line_bytes

    def _tlb(self, side: str) -> TLB:
        return self.itlb if side == "i" else self.dtlb

    def bind_shadow(self, engine: "SafeSpecEngine") -> None:
        """Route owned accesses through ``engine``'s shadow structures,
        and bind per side what :meth:`retire_access` reads."""
        self._engine = weakref.proxy(engine)
        self._shadow_lines = _BySide(i=engine.shadow_icache._by_key,
                                     d=engine.shadow_dcache._by_key)
        self._shadow_tlbs = _BySide(i=engine.shadow_itlb._by_key,
                                    d=engine.shadow_dtlb._by_key)
        d_cache = engine.shadow_dcache
        latency = self._latency["d"]
        # Per side: its TLB, shadow TLB and shadow cache, L1(side)'s sets
        # and latency; then what both sides share: the shadow d-cache
        # (the walk's), L1D's, L2's and L3's sets, and the L1D, L2, L3
        # and memory latencies.
        shared = (d_cache._by_key, d_cache, *self._level_sets["d"],
                  latency["L1"], latency["L2"], latency["L3"],
                  latency["MEM"])
        self._retiring = _BySide(
            (side, (tlb, tlb._entries, tlb_shadow._by_key, tlb_shadow,
                    tlb.config.hit_latency, side == "i", line_shadow._by_key,
                    line_shadow, *self._level_sets[side][:2],
                    self._latency[side]["L1"], *shared))
            for side, tlb, line_shadow, tlb_shadow in (
                ("i", self.itlb, engine.shadow_icache, engine.shadow_itlb),
                ("d", self.dtlb, d_cache, engine.shadow_dtlb)))

    # ------------------------------------------------------------------
    # committed-state installation (unowned fills, and the SafeSpec
    # engine when shadow state commits)
    # ------------------------------------------------------------------

    def install_line(self, side: str, line_addr: int) -> None:
        """Install a line into L1(side) + L2 + L3 (inclusive hierarchy);
        a line already present only moves to MRU."""
        line = line_addr & self.line_mask
        index = line >> self.set_shift
        (s1, k1, w1, f1, e1, s2, k2, w2, f2, e2,
         s3, k3, w3, f3, e3) = self._fill_sets[side]
        cache_set = s1[index & k1]
        if line in cache_set:
            cache_set.move_to_end(line)
        else:
            f1.value += 1
            if len(cache_set) >= w1:
                cache_set.popitem(False)
                e1.value += 1
            cache_set[line] = True
        cache_set = s2[index & k2]
        if line in cache_set:
            cache_set.move_to_end(line)
        else:
            f2.value += 1
            if len(cache_set) >= w2:
                cache_set.popitem(False)
                e2.value += 1
            cache_set[line] = True
        cache_set = s3[index & k3]
        if line in cache_set:
            cache_set.move_to_end(line)
        else:
            f3.value += 1
            if len(cache_set) >= w3:
                cache_set.popitem(False)
                e3.value += 1
            cache_set[line] = True

    def install_translation(self, side: str, translation: Translation) -> None:
        """Install a translation into the real TLB."""
        self._tlb(side).fill(translation)

    def refresh_committed_translation(self, side: str, vaddr: int) -> None:
        """Refresh TLB recency for a *committing* access.

        Speculative lookups peek without perturbing LRU state; once the
        instruction commits its access is architectural, so recency must
        be restored exactly as a baseline lookup would have.  Refresh
        never *installs*: an entry whose shadow fill was dropped stays
        lost, as the paper specifies for full shadow structures.
        """
        (self.itlb if side == "i" else self.dtlb).refresh(vaddr >> PAGE_SHIFT)

    def refresh_line_recency(self, side: str, addr: int) -> None:
        """Refresh cache LRU recency of the line holding ``addr`` in
        whichever committed levels currently hold it (no installation)."""
        line = addr & self.line_mask
        index = line >> self.set_shift
        s1, k1, s2, k2, s3, k3 = self._level_sets[side]
        for cache_set in s1[index & k1], s2[index & k2], s3[index & k3]:
            if line in cache_set:
                cache_set.move_to_end(line)

    def refresh_walk_lines(self, vaddr: int) -> None:
        """Refresh cache recency of the page-table lines a committing
        access's page walk read (they went through the d-cache path)."""
        shift = self.set_shift
        s1, k1, s2, k2, s3, k3 = self._level_sets["d"]
        for line in self._walk_lines(vaddr):
            index = line >> shift
            for cache_set in s1[index & k1], s2[index & k2], s3[index & k3]:
                if line in cache_set:
                    cache_set.move_to_end(line)

    # ------------------------------------------------------------------
    # non-perturbing presence checks (speculative path + attack receivers)
    # ------------------------------------------------------------------

    def committed_hit_level(self, side: str, paddr: int) -> Optional[str]:
        """Deepest-priority level holding the line, without LRU update."""
        line = paddr & self.line_mask
        index = line >> self.set_shift
        for name, sets, set_mask, _, _ in self.levels[side]:
            if line in sets.get(index & set_mask, ()):
                return name
        return None

    def level_latency(self, level: str, side: str = "d") -> int:
        """Hit latency of a named level ('L1'/'L2'/'L3'/'MEM'/'shadow')
        on one side: 'L1' and 'shadow' are L1I's on the i-side, L1D's
        on the d-side."""
        latency = self._latency[side].get(level)
        if latency is None:
            raise ConfigError(f"unknown level {level!r}")
        return latency

    # ------------------------------------------------------------------
    # page walking
    # ------------------------------------------------------------------

    def _walk_lines(self, vaddr: int) -> Tuple[int, ...]:
        """Lines of the page-table entries a walk for ``vaddr`` reads,
        one per walk level.  Each entry has a synthetic physical address
        per (walk level, vpn), which gives walker accesses realistic
        locality.  A page's lines are computed once: its walk and every
        commit-time refresh of that walk read them."""
        vpn = vaddr >> PAGE_SHIFT
        lines = self._page_walk_lines.get(vpn)
        if lines is None:
            line_mask = self.line_mask
            lines = self._page_walk_lines[vpn] = tuple(
                (PAGE_TABLE_BASE + (level << 36) + (vpn >> (9 * level)) * 8)
                & line_mask for level in range(self.page_table.walk_levels))
        return lines

    def _walk(self, side: str, vaddr: int, owner: Optional[int],
              result: AccessResult) -> Optional[Translation]:
        """Walk the page table, charging one d-cache-path access per level.

        Page-table lines fill as the access's own fills do (into shadow
        state under SafeSpec).  Returns the translation, or None when
        the page is unmapped (the walk still costs its full latency in
        that case).
        """
        self._walks.increment()
        latency = self._latency["d"]
        walk_latency = 0
        for line in self._walk_lines(vaddr):
            level_name = self._lookup_line_level("d", line, owner)
            walk_latency += latency[level_name]
            if level_name == "MEM":
                if owner is None:
                    self.install_line("d", line)
                else:
                    self._engine.record_line("d", line, owner)
        result.walk_latency = walk_latency
        translation = self.page_table.lookup(vaddr)
        if translation is not None:
            if owner is None:
                self.install_translation(side, translation)
            else:
                self._engine.record_translation(side, translation, owner)
        return translation

    def _lookup_line_level(self, side: str, line_addr: int,
                           owner: Optional[int]) -> str:
        """Where a line currently lives, shadow state included when the
        access is owned.

        An owned (speculative) lookup must not perturb real replacement
        state, so it only inspects the committed levels (as
        :meth:`committed_hit_level` does); an unowned one updates LRU
        order and the hit/miss counters level by level.
        """
        index = line_addr >> self.set_shift
        if owner is not None:
            if line_addr in self._shadow_lines[side]:
                return "shadow"
            for name, sets, set_mask, _, _ in self.levels[side]:
                if line_addr in sets.get(index & set_mask, ()):
                    return name
            return "MEM"
        for name, sets, set_mask, hits, misses in self.levels[side]:
            cache_set = sets[index & set_mask]
            if line_addr in cache_set:
                cache_set.move_to_end(line_addr)
                hits.value += 1
                return name
            misses.value += 1
        return "MEM"

    # ------------------------------------------------------------------
    # translation (shared by data and instruction paths)
    # ------------------------------------------------------------------

    def translate(self, side: str, vaddr: int, owner: Optional[int],
                  result: AccessResult) -> Optional[Translation]:
        """TLB lookup, walking on a miss.  Latency accrues into ``result``.

        An owned lookup checks the shadow TLB (newest entry wins), then
        peeks the committed TLB without touching its recency.
        """
        vpn = vaddr >> PAGE_SHIFT
        tlb = self.itlb if side == "i" else self.dtlb
        if owner is None:
            entry = tlb.lookup(vpn)
        else:
            shadowed = self._shadow_tlbs[side].get(vpn)
            entry = shadowed[-1].payload if shadowed else tlb.peek(vpn)
        if entry is not None:
            result.latency += tlb.config.hit_latency
            result.tlb_hit = True
            return entry
        translation = self._walk(side, vaddr, owner, result)
        result.latency += result.walk_latency
        return translation

    # ------------------------------------------------------------------
    # the two access front doors
    # ------------------------------------------------------------------

    def data_access(self, vaddr: int, *, is_write: bool,
                    privilege: PrivilegeLevel,
                    owner: Optional[int] = None) -> AccessResult:
        """One data-side access: translate + cache lookup + fill-on-miss.

        ``owner`` is ``None`` for a committed-state access, or the
        sequence number whose shadow state the access reads and fills.
        Permission violations do NOT abort the access (paper property P1):
        the data path completes, caches/TLBs are affected, and the fault is
        reported in ``result.fault`` for the pipeline to raise at commit.
        """
        result = AccessResult(latency=0)
        translation = self.translate("d", vaddr, owner, result)
        if translation is None:
            result.fault = "unmapped"
            result.hit_level = "MEM"
            return result
        result.translation = translation
        if not translation.permissions.allows(
                write=is_write, execute=False, privilege=privilege):
            result.fault = "permission"
        paddr = translation.physical(vaddr)
        result.paddr = paddr
        line = paddr & self.line_mask
        result.line_addr = line
        level = self._lookup_line_level("d", line, owner)
        result.hit_level = level
        result.latency += self._latency["d"][level]
        if owner is None:
            if level == "MEM":
                self.install_line("d", line)
                result.filled = True
            elif level == "L2" or level == "L3":
                # Baseline promotion into L1 on an inner-level hit.
                self.l1d.fill(line)
                result.filled = True
        elif level != "L1" and level != "shadow":
            # A miss, or a line that would be promoted into L1, produces
            # new L1-visible state: it lands in the owner's shadow.
            self._engine.record_line("d", line, owner)
            result.filled = True
        return result

    def fetch_access(self, vaddr: int, *, privilege: PrivilegeLevel,
                     owner: Optional[int] = None) -> AccessResult:
        """One instruction-fetch access (iTLB + L1I path); ``owner`` as
        for :meth:`data_access`."""
        result = AccessResult(latency=0)
        translation = self.translate("i", vaddr, owner, result)
        if translation is None:
            result.fault = "unmapped"
            result.hit_level = "MEM"
            return result
        result.translation = translation
        if not translation.permissions.allows(
                write=False, execute=True, privilege=privilege):
            result.fault = "permission"
        paddr = translation.physical(vaddr)
        result.paddr = paddr
        line = paddr & self.line_mask
        result.line_addr = line
        level = self._lookup_line_level("i", line, owner)
        result.hit_level = level
        result.latency += self._latency["i"][level]
        if owner is None:
            if level == "MEM":
                self.install_line("i", line)
                result.filled = True
            elif level == "L2" or level == "L3":
                self.l1i.fill(line)
                result.filled = True
        elif level != "L1" and level != "shadow":
            self._engine.record_line("i", line, owner)
            result.filled = True
        return result

    # ------------------------------------------------------------------
    # an owned access whose owner commits at once
    # ------------------------------------------------------------------

    def retire_access(self, side: str, vaddr: int, *,
                      privilege: PrivilegeLevel, write: bool = False,
                      line: bool = True) -> Optional[Tuple[int, str, int]]:
        """An owned access that commits at once, applied without shadow
        entries (SafeSpec machines only).

        Makes the net transition of an owned :meth:`data_access`
        (:meth:`fetch_access` on the i-side; :meth:`translate` alone
        when ``line`` is false), then the engine's promotion of its
        fills and the commit-time refreshes of its TLB entry, walk lines
        and line — in that order:

        1. presence lookups that change no LRU state and no hit/miss
           counter (shadow state first, as an owned lookup reads it);
        2. the walk counter and the walk lines' latencies;
        3. the shadow structures' fill and commit counters, a fill past
           capacity counting as a drop (or block) and never installing;
        4. installs in fill order: walk lines, the translation, the line;
        5. the engine's ``promotions``;
        6. the TLB, walk-line and line recency refreshes.

        Everything is resolved in one pass over the per-side binding
        :meth:`bind_shadow` made: the sets the access's line maps to
        are looked up once for its lookup and refresh, the shadow
        counters and the TLB fill are made in place, and lines are
        installed through :meth:`install_line`.  Occupancy is not
        charged: each structure's count is the same before and after,
        so its histogram is too.  Returns ``(latency, hit_level,
        paddr)``, or ``None``, with no state changed, when the access
        would fault: a fault window reads the faulting access's shadow
        state (and WFB promotes it), so the caller makes that access
        owned.
        """
        (tlb, tlb_entries, tlb_shadow, shadow_tlb, tlb_latency, execute,
         line_shadow, shadow_cache, s1, k1, l1_latency, d_shadow, d_cache,
         d1, dk1, s2, k2, s3, k3, d_latency, l2_latency, l3_latency,
         mem_latency) = self._retiring[side]
        vpn = vaddr >> PAGE_SHIFT
        set_shift = self.set_shift
        shadowed = tlb_shadow.get(vpn)
        entry = shadowed[-1].payload if shadowed else tlb_entries.get(vpn)
        translation = entry or self._mappings.get(vpn)
        if translation is None or not translation.permissions.allows(
                write=write, execute=execute, privilege=privilege):
            return None
        # The walk's lines that missed every level, in fill order; a
        # line counts as a shadow hit once an earlier fill of the same
        # access put it there (see _fill_fitted).
        missed: Tuple[int, ...] = ()
        translated = 0
        if entry is None:
            self._walks.value += 1
            walk_lines = self._page_walk_lines.get(vpn) \
                or self._walk_lines(vaddr)
            latency = 0
            for walk_line in walk_lines:
                index = walk_line >> set_shift
                if walk_line in d_shadow \
                        or walk_line in d1.get(index & dk1, ()) \
                        or walk_line in missed \
                        and self._fill_fitted(missed, walk_line):
                    latency += d_latency        # shadow or L1D
                elif walk_line in s2.get(index & k2, ()):
                    latency += l2_latency
                elif walk_line in s3.get(index & k3, ()):
                    latency += l3_latency
                else:
                    latency += mem_latency
                    missed += (walk_line,)
            if shadow_tlb._count < shadow_tlb.capacity:
                translated = 1
                shadow_tlb._fills.value += 1
                shadow_tlb._committed.value += 1
            else:
                shadow_tlb._lost.value += 1
        else:
            latency = tlb_latency
        paddr = (translation.ppn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))
        walked = d_fills = len(missed)
        level = ""
        filled = 0
        if line:
            line_addr = paddr & self.line_mask
            index = line_addr >> set_shift
            c1 = s1.get(index & k1, ())
            c2 = s2.get(index & k2, ())
            c3 = s3.get(index & k3, ())
            if line_addr in line_shadow or (
                    missed and side == "d" and line_addr in missed
                    and self._fill_fitted(missed, line_addr)):
                level = "shadow"
                latency += l1_latency
            elif line_addr in c1:
                level = "L1"
                latency += l1_latency
            else:
                if line_addr in c2:
                    level = "L2"
                    latency += l2_latency
                elif line_addr in c3:
                    level = "L3"
                    latency += l3_latency
                else:
                    level = "MEM"
                    latency += mem_latency
                if side == "d":
                    d_fills += 1
                elif shadow_cache._count < shadow_cache.capacity:
                    filled = 1
                    shadow_cache._fills.value += 1
                    shadow_cache._committed.value += 1
                else:
                    shadow_cache._lost.value += 1
        if d_fills:
            room = d_cache.capacity - d_cache._count
            if room < d_fills:
                d_cache._lost.value += d_fills - room
                d_fills = room
            d_cache._fills.value += d_fills
            d_cache._committed.value += d_fills
            if d_fills > walked:
                filled = 1
            else:
                walked = d_fills
        for walk_line in missed[:walked]:
            self.install_line("d", walk_line)
        if translated:
            tlb._fills.value += 1
            if len(tlb_entries) >= tlb._capacity:
                tlb_entries.popitem(False)
                tlb._evictions.value += 1
            tlb_entries[vpn] = translation
        if filled:
            self.install_line(side, line_addr)
            # The line's sets exist now; its refresh below reads them.
            c1, c2, c3 = s1[index & k1], s2[index & k2], s3[index & k3]
        installed = walked + translated + filled
        if installed:
            self._engine.promotions += installed
        if vpn in tlb_entries:
            tlb_entries.move_to_end(vpn)
        if entry is None:
            for walk_line in walk_lines:
                index = walk_line >> set_shift
                for cache_set in (d1.get(index & dk1, ()),
                                  s2.get(index & k2, ()),
                                  s3.get(index & k3, ())):
                    if walk_line in cache_set:
                        cache_set.move_to_end(walk_line)
        if level in ("L1", "L2", "L3"):
            for cache_set in c1, c2, c3:
                if line_addr in cache_set:
                    cache_set.move_to_end(line_addr)
        return latency, level, paddr

    def _fill_fitted(self, fills: Tuple[int, ...], line_addr: int) -> bool:
        """Whether ``line_addr``, one of the d-side ``fills`` a retiring
        access made, fitted in the shadow d-cache (so a later lookup of
        the same access hits it there).  A line filled twice in one
        access is a page-walk line aliasing another, or the access's own
        line; no workload makes one."""
        shadow = self._engine.shadow_dcache
        return fills.index(line_addr) < shadow.capacity - shadow._count

    # ------------------------------------------------------------------
    # store commit (TSO: stores update memory state only at commit)
    # ------------------------------------------------------------------

    def commit_store(self, paddr: int, value: int) -> None:
        """Architecturally perform a store: write memory, install the line
        (write-allocate) into the committed hierarchy."""
        self.memory.write_word(paddr, value)
        self.install_line("d", paddr & self.line_mask)

    # ------------------------------------------------------------------
    # attacker conveniences
    # ------------------------------------------------------------------

    def clflush(self, paddr: int) -> None:
        """Flush a line from every level (the x86 ``clflush``)."""
        line = paddr & self.line_mask
        index = line >> self.set_shift
        for sets, set_mask, flushes in self._flush_levels:
            cache_set = sets.get(index & set_mask, ())
            if line in cache_set:
                del cache_set[line]
                flushes.value += 1

    def probe_data_latency(self, vaddr: int) -> int:
        """Latency an attacker's timed *committed* load would observe now.

        Non-perturbing — used by receivers to model the timing loop of
        flush+reload without disturbing the state being measured.
        """
        return self.probe_latencies("d", (vaddr,))[0]

    def probe_fetch_latency(self, vaddr: int) -> int:
        """Latency a committed, timed instruction fetch at ``vaddr`` would
        observe now (the i-cache variant's receiver measurement)."""
        return self.probe_latencies("i", (vaddr,))[0]

    def probe_latencies(self, side: str, vaddrs: Iterable[int]) -> List[int]:
        """Committed-access latency of every address, on ``side``.

        An unmapped address costs the memory latency; a mapped one its
        page's translation latency plus the line's committed hit level.
        A page's translation and its latency are resolved once per
        call: probes never perturb state, so every address on a page
        sees the same TLB hit or page walk.
        """
        memory_latency = self.config.memory_latency
        level_latency = self._latency[side]
        levels = self.levels[side]
        line_mask, set_shift = self.line_mask, self.set_shift
        lookup = self.page_table.lookup
        pages: Dict[int, Tuple[Optional[int], int]] = {}
        latencies = []
        for vaddr in vaddrs:
            vpn = vaddr >> PAGE_SHIFT
            page = pages.get(vpn)
            if page is None:
                translation = lookup(vaddr)
                if translation is None:
                    page = (None, memory_latency)
                else:
                    page = (translation.ppn << PAGE_SHIFT,
                            self.probe_translation_latency(side, vaddr))
                pages[vpn] = page
            base, latency = page
            if base is not None:
                line = (base | (vaddr & (PAGE_SIZE - 1))) & line_mask
                index = line >> set_shift
                for name, sets, set_mask, _, _ in levels:
                    if line in sets.get(index & set_mask, ()):
                        latency += level_latency[name]
                        break
                else:
                    latency += memory_latency
            latencies.append(latency)
        return latencies

    def probe_translation_latency(self, side: str, vaddr: int) -> int:
        """Translation latency a committed access would observe now.

        On a TLB hit this is the TLB hit latency; on a miss it is the sum
        of per-level page-walk accesses at the walked lines' *current*
        committed cache levels.  This is the measurement the TLB-variant
        receivers use to detect a speculatively installed translation.
        """
        tlb = self._tlb(side)
        if tlb.contains(vaddr >> PAGE_SHIFT):
            return tlb.config.hit_latency
        level_latency = self._latency["d"]
        return sum(level_latency[self.committed_hit_level("d", line) or "MEM"]
                   for line in self._walk_lines(vaddr))
