"""The full memory hierarchy: L1I/L1D, unified L2/L3, TLBs, page walker.

Accesses flow through a :class:`FillSink`, which decides where
micro-architectural state produced by the access lands:

* :class:`DirectFillSink` — the baseline processor: fills go straight into
  the real caches/TLBs at access time (the leaky behaviour Spectre and
  Meltdown exploit).
* ``ShadowFillSink`` (in :mod:`repro.core.safespec`) — SafeSpec: fills are
  redirected into shadow structures and real state is *only inspected*,
  never perturbed (not even replacement/LRU state, per Section IV-A of the
  paper: "not even the cache replacement algorithm state is affected").

The page walker issues one dependent access per page-table level through
the *data-cache path* using the same sink, mirroring the paper's
observation that "the page walker uses the load-store queue for these
accesses, and the protection introduced for the data caches ends up
protecting these structures as well".
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Tuple

from repro.errors import ConfigError
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import MainMemory
from repro.memory.paging import (PAGE_SHIFT, PAGE_SIZE, PageTable,
                                 PrivilegeLevel, Translation)
from repro.memory.tlb import TLB, TLBConfig
from repro.statistics import StatRegistry

# Physical region where synthetic page-table entries live; one 8-byte entry
# per (level, vpn).  Chosen far above any address the workloads touch.
PAGE_TABLE_BASE = 0x4000_0000_0000


class FillSink(Protocol):
    """Receiver for micro-architectural state produced by an access.

    ``side`` is ``"i"`` or ``"d"``.  Implementations return ``True`` from
    the lookup methods when they can satisfy the request from their own
    (shadow) state.
    """

    speculative: bool

    def lookup_line(self, side: str, line_addr: int) -> bool:
        """Whether the sink holds the cache line (shadow hit)."""
        ...

    def fill_line(self, side: str, line_addr: int) -> None:
        """Accept a newly fetched cache line."""
        ...

    def lookup_translation(self, side: str, vpn: int) -> Optional[Translation]:
        """Return a shadow-held translation for ``vpn``, if any."""
        ...

    def fill_translation(self, side: str, translation: Translation) -> None:
        """Accept a newly walked translation."""
        ...


class DirectFillSink:
    """Baseline sink: all state goes directly into the real structures."""

    speculative = False

    def __init__(self, hierarchy: "MemoryHierarchy") -> None:
        self._hierarchy = hierarchy

    def lookup_line(self, side: str, line_addr: int) -> bool:
        return False

    def fill_line(self, side: str, line_addr: int) -> None:
        self._hierarchy.install_line(side, line_addr)

    def lookup_translation(self, side: str, vpn: int) -> Optional[Translation]:
        return None

    def fill_translation(self, side: str, translation: Translation) -> None:
        self._hierarchy.install_translation(side, translation)


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

    @property
    def cache_hit(self) -> bool:
        return self.hit_level in ("shadow", "L1")


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
        # A proxy, not the hierarchy itself: a sink → hierarchy strong
        # reference would make every hierarchy cyclic garbage.
        self._direct_sink = DirectFillSink(weakref.proxy(self))

    # ------------------------------------------------------------------
    # component helpers
    # ------------------------------------------------------------------

    @property
    def line_bytes(self) -> int:
        return self.config.l1d.line_bytes

    def _l1(self, side: str) -> Cache:
        if side == "i":
            return self.l1i
        if side == "d":
            return self.l1d
        raise ConfigError(f"side must be 'i' or 'd', got {side!r}")

    def _tlb(self, side: str) -> TLB:
        return self.itlb if side == "i" else self.dtlb

    def default_sink(self) -> DirectFillSink:
        """The baseline (leaky) fill sink."""
        return self._direct_sink

    # ------------------------------------------------------------------
    # committed-state installation (used by the direct sink and by the
    # SafeSpec engine when shadow state commits)
    # ------------------------------------------------------------------

    def install_line(self, side: str, line_addr: int) -> None:
        """Install a line into L1(side) + L2 + L3 (inclusive hierarchy)."""
        self._l1(side).fill(line_addr)
        self.l2.fill(line_addr)
        self.l3.fill(line_addr)

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
        self._tlb(side).refresh(vaddr >> PAGE_SHIFT)

    def refresh_line_recency(self, side: str, line_addr: int) -> None:
        """Refresh cache LRU recency of a line in whichever committed
        levels currently hold it (no installation)."""
        (self.l1i if side == "i" else self.l1d).refresh(line_addr)
        self.l2.refresh(line_addr)
        self.l3.refresh(line_addr)

    def refresh_walk_lines(self, vaddr: int) -> None:
        """Refresh cache recency of the page-table lines a committing
        access's page walk read (they went through the d-cache path)."""
        vpn = vaddr >> PAGE_SHIFT
        for level in range(self.page_table.walk_levels):
            pte_paddr = self._page_table_entry_paddr(level, vpn)
            self.refresh_line_recency("d", self.l1d.line_address(pte_paddr))

    # ------------------------------------------------------------------
    # non-perturbing presence checks (speculative path + attack receivers)
    # ------------------------------------------------------------------

    def committed_hit_level(self, side: str, paddr: int) -> Optional[str]:
        """Deepest-priority level holding the line, without LRU update."""
        l1 = self._l1(side)
        line = l1.line_address(paddr)
        if l1.contains(line):
            return "L1"
        if self.l2.contains(line):
            return "L2"
        if self.l3.contains(line):
            return "L3"
        return None

    def level_latency(self, level: str) -> int:
        """Hit latency of a named level ('L1'/'L2'/'L3'/'MEM'/'shadow').

        Shadow hits are charged the L1 hit latency, the paper's
        conservative assumption (Section VI-A).
        """
        if level in ("L1", "shadow"):
            return self.config.l1d.hit_latency
        if level == "L2":
            return self.config.l2.hit_latency
        if level == "L3":
            return self.config.l3.hit_latency
        if level == "MEM":
            return self.config.memory_latency
        raise ConfigError(f"unknown level {level!r}")

    # ------------------------------------------------------------------
    # page walking
    # ------------------------------------------------------------------

    def _page_table_entry_paddr(self, level: int, vpn: int) -> int:
        """Synthetic physical address of the page-table entry for
        (walk level, vpn) — gives walker accesses realistic locality."""
        return PAGE_TABLE_BASE + (level << 36) + (vpn >> (9 * level)) * 8

    def _walk(self, side: str, vaddr: int, sink: FillSink,
              result: AccessResult) -> Optional[Translation]:
        """Walk the page table, charging one d-cache-path access per level.

        Page-table lines fill through the *sink* (shadowed under SafeSpec).
        Returns the translation, or None when the page is unmapped (the
        walk still costs its full latency in that case).
        """
        self._walks.increment()
        vpn = vaddr >> PAGE_SHIFT
        walk_latency = 0
        for level in range(self.page_table.walk_levels):
            pte_paddr = self._page_table_entry_paddr(level, vpn)
            line = self.l1d.line_address(pte_paddr)
            level_name = self._lookup_line_level("d", line, sink)
            walk_latency += self.level_latency(level_name)
            if level_name == "MEM":
                sink.fill_line("d", line)
        result.walk_latency = walk_latency
        translation = self.page_table.lookup(vaddr)
        if translation is not None:
            sink.fill_translation(side, translation)
        return translation

    def _lookup_line_level(self, side: str, line_addr: int,
                           sink: FillSink) -> str:
        """Where a line currently lives, honouring the sink's shadow state.

        Speculative sinks must not perturb real replacement state, so the
        committed levels are checked with non-perturbing ``contains``;
        the baseline sink uses the normal ``touch`` path.
        """
        if sink.lookup_line(side, line_addr):
            return "shadow"
        if sink.speculative:
            level = self.committed_hit_level(side, line_addr)
            return level if level is not None else "MEM"
        l1 = self._l1(side)
        if l1.touch(line_addr):
            return "L1"
        if self.l2.touch(line_addr):
            return "L2"
        if self.l3.touch(line_addr):
            return "L3"
        return "MEM"

    # ------------------------------------------------------------------
    # translation (shared by data and instruction paths)
    # ------------------------------------------------------------------

    def translate(self, side: str, vaddr: int, sink: FillSink,
                  result: AccessResult) -> Optional[Translation]:
        """TLB lookup, walking on a miss.  Latency accrues into ``result``."""
        vpn = vaddr >> PAGE_SHIFT
        tlb = self._tlb(side)
        shadow_entry = sink.lookup_translation(side, vpn)
        if shadow_entry is not None:
            result.latency += tlb.config.hit_latency
            result.tlb_hit = True
            return shadow_entry
        if sink.speculative:
            entry = tlb.peek(vpn)
            if entry is not None:
                result.latency += tlb.config.hit_latency
                result.tlb_hit = True
                return entry
        else:
            entry = tlb.lookup(vpn)
            if entry is not None:
                result.latency += tlb.config.hit_latency
                result.tlb_hit = True
                return entry
        translation = self._walk(side, vaddr, sink, result)
        result.latency += result.walk_latency
        return translation

    # ------------------------------------------------------------------
    # the two access front doors
    # ------------------------------------------------------------------

    def data_access(self, vaddr: int, *, is_write: bool,
                    privilege: PrivilegeLevel,
                    sink: Optional[FillSink] = None) -> AccessResult:
        """One data-side access: translate + cache lookup + fill-on-miss.

        Permission violations do NOT abort the access (paper property P1):
        the data path completes, caches/TLBs are affected, and the fault is
        reported in ``result.fault`` for the pipeline to raise at commit.
        """
        sink = sink or self._direct_sink
        result = AccessResult(latency=0)
        translation = self.translate("d", vaddr, sink, result)
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
        line = self.l1d.line_address(paddr)
        result.line_addr = line
        level = self._lookup_line_level("d", line, sink)
        result.hit_level = "shadow" if level == "shadow" else level
        result.latency += self.level_latency(level)
        if level == "MEM" or (sink.speculative and level in ("L2", "L3")):
            # A miss (or, speculatively, a line that would be promoted into
            # L1) produces new L1-visible state: route it through the sink.
            sink.fill_line("d", line)
            result.filled = True
        elif level in ("L2", "L3"):
            # Baseline promotion into L1 on an inner-level hit.
            self._l1("d").fill(line)
            result.filled = True
        return result

    def fetch_access(self, vaddr: int, *, privilege: PrivilegeLevel,
                     sink: Optional[FillSink] = None) -> AccessResult:
        """One instruction-fetch access (iTLB + L1I path)."""
        sink = sink or self._direct_sink
        result = AccessResult(latency=0)
        translation = self.translate("i", vaddr, sink, result)
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
        line = self.l1i.line_address(paddr)
        result.line_addr = line
        level = self._lookup_line_level("i", line, sink)
        result.hit_level = "shadow" if level == "shadow" else level
        result.latency += self.level_latency(level)
        if level == "MEM" or (sink.speculative and level in ("L2", "L3")):
            sink.fill_line("i", line)
            result.filled = True
        elif level in ("L2", "L3"):
            self._l1("i").fill(line)
            result.filled = True
        return result

    # ------------------------------------------------------------------
    # store commit (TSO: stores update memory state only at commit)
    # ------------------------------------------------------------------

    def commit_store(self, paddr: int, value: int) -> None:
        """Architecturally perform a store: write memory, install the line
        (write-allocate) into the committed hierarchy."""
        self.memory.write_word(paddr, value)
        self.install_line("d", self.l1d.line_address(paddr))

    # ------------------------------------------------------------------
    # attacker conveniences
    # ------------------------------------------------------------------

    def clflush(self, paddr: int) -> None:
        """Flush a line from every level (the x86 ``clflush``)."""
        line = self.l1d.line_address(paddr)
        self.l1d.flush_line(line)
        self.l1i.flush_line(line)
        self.l2.flush_line(line)
        self.l3.flush_line(line)

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
                level = self.committed_hit_level(
                    side, base | (vaddr & (PAGE_SIZE - 1)))
                latency += self.level_latency(level or "MEM")
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
        vpn = vaddr >> PAGE_SHIFT
        latency = 0
        for level in range(self.page_table.walk_levels):
            pte_paddr = self._page_table_entry_paddr(level, vpn)
            line = self.l1d.line_address(pte_paddr)
            hit_level = self.committed_hit_level("d", line)
            latency += self.level_latency(hit_level if hit_level else "MEM")
        return latency
