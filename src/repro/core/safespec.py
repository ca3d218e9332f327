"""The SafeSpec engine: shadow bookkeeping wired into the pipeline.

The engine owns the four shadow structures and implements the three hooks
the pipeline calls:

* ``sink_for(uop)`` — a :class:`ShadowFillSink` bound to the requesting
  micro-op; every cache-line or translation fill the memory hierarchy
  produces on behalf of that micro-op lands in shadow state tagged with
  the micro-op's sequence number.
* ``on_commit(uop)`` / ``on_branch_resolved(...)`` — promotion: entries
  move into the committed structures per the active
  :class:`~repro.core.policy.CommitPolicy` (WFC promotes at commit, WFB
  when the owning micro-op's older branches have all resolved).
* ``on_squash(uop)`` — annulment: the squashed micro-op's entries vanish
  without ever touching committed state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.policy import CommitPolicy
from repro.core.shadow import FullPolicy, ShadowEntry, ShadowStructure
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.paging import Translation

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.pipeline.uop import DynUop


class SizingMode(enum.Enum):
    """How the shadow structures are sized.

    * ``SECURE`` — worst case: shadow d-cache/dTLB sized to the load-store
      queue, shadow i-cache/iTLB to the ROB.  No contention is possible,
      which closes the TSA channel (paper Sections V and VII).
    * ``PERFORMANCE`` — sized to the 99.99th percentile of observed
      occupancy (the paper's Figures 6-9 sizing study); contention is
      possible and TSAs become expressible.
    * ``CUSTOM`` — explicit sizes, used by the TSA experiments to make the
      covert channel easy to demonstrate.
    """

    SECURE = "secure"
    PERFORMANCE = "performance"
    CUSTOM = "custom"


# Performance-mode sizes: the paper's Figures 6-9 p99.99 results (shadow
# i-cache ~25 lines, d-cache bounded by ~48, iTLB <10, dTLB up to 25).
# Our synthetic suite measures *smaller* percentiles (see EXPERIMENTS.md),
# so these paper-derived sizes are conservative for the reproduction.
PERFORMANCE_SIZES = {
    "shadow_dcache": 48,
    "shadow_icache": 25,
    "shadow_itlb": 10,
    "shadow_dtlb": 25,
}


@dataclass(frozen=True)
class SafeSpecConfig:
    """Engine configuration."""

    policy: CommitPolicy = CommitPolicy.WFC
    sizing: SizingMode = SizingMode.SECURE
    full_policy: FullPolicy = FullPolicy.DROP
    # CUSTOM sizing only:
    dcache_entries: Optional[int] = None
    icache_entries: Optional[int] = None
    itlb_entries: Optional[int] = None
    dtlb_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sizing is SizingMode.CUSTOM:
            for name in ("dcache_entries", "icache_entries",
                         "itlb_entries", "dtlb_entries"):
                value = getattr(self, name)
                if value is None or value < 1:
                    raise ConfigError(
                        f"CUSTOM sizing requires {name} >= 1, got {value}")


class ShadowFillSink:
    """A :class:`~repro.memory.hierarchy.FillSink` bound to one micro-op."""

    __slots__ = ("_engine", "_uop")

    speculative = True

    def __init__(self, engine: "SafeSpecEngine", uop: "DynUop") -> None:
        self._engine = engine
        self._uop = uop

    def lookup_line(self, side: str, line_addr: int) -> bool:
        structure = self._engine.cache_shadow(side)
        return structure.lookup(line_addr) is not None

    def fill_line(self, side: str, line_addr: int) -> None:
        self._engine.record_line(side, line_addr, self._uop)

    def lookup_translation(self, side: str, vpn: int) -> Optional[Translation]:
        structure = self._engine.tlb_shadow(side)
        entry = structure.lookup(vpn)
        if entry is None:
            return None
        payload = entry.payload
        return payload if isinstance(payload, Translation) else None

    def fill_translation(self, side: str, translation: Translation) -> None:
        self._engine.record_translation(side, translation, self._uop)


class SafeSpecEngine:
    """Owns shadow state and implements promotion/annulment."""

    def __init__(self, config: SafeSpecConfig,
                 hierarchy: MemoryHierarchy,
                 ldq_entries: int = 72, stq_entries: int = 56,
                 rob_entries: int = 224) -> None:
        self.config = config
        self.hierarchy = hierarchy
        sizes = self._resolve_sizes(ldq_entries, stq_entries, rob_entries)
        # Cycles of occupancy sampled so far: one clock for all four
        # structures, each of which charges its histogram on change.
        self._sampled = [0]
        self._structures = tuple(
            ShadowStructure(name, sizes[name], config.full_policy,
                            self._sampled)
            for name in ("shadow_dcache", "shadow_icache", "shadow_itlb",
                         "shadow_dtlb"))
        (self.shadow_dcache, self.shadow_icache, self.shadow_itlb,
         self.shadow_dtlb) = self._structures
        # owner seq -> entries, so commit/squash are O(owner's entries)
        self._entries_by_owner: Dict[int, List[_OwnedEntry]] = {}
        self._now = 0
        # Leakage bookkeeping (read by repro.verify): a squashed micro-op
        # whose shadow state was already promoted is committed-state
        # leakage from a wrong path.  WFC can never produce one; WFB can
        # only via the fault hole the paper describes (Section VI).
        self.promotions = 0
        self.promoted_then_squashed = 0
        # The config is frozen: its per-call policy tests are bound once.
        self._wfb = config.policy is CommitPolicy.WFB
        self._block_on_full = config.full_policy is FullPolicy.BLOCK

    def _resolve_sizes(self, ldq: int, stq: int, rob: int) -> Dict[str, int]:
        mode = self.config.sizing
        if mode is SizingMode.SECURE:
            # Worst case (paper Section VII): d-side bounded by the
            # load-store queue, i-side by the reorder buffer.  The d-side
            # bound includes page-walker lines, hence ldq + stq.
            return {
                "shadow_dcache": ldq + stq,
                "shadow_icache": rob,
                "shadow_itlb": rob,
                "shadow_dtlb": ldq + stq,
            }
        if mode is SizingMode.PERFORMANCE:
            return dict(PERFORMANCE_SIZES)
        return {
            "shadow_dcache": self.config.dcache_entries,
            "shadow_icache": self.config.icache_entries,
            "shadow_itlb": self.config.itlb_entries,
            "shadow_dtlb": self.config.dtlb_entries,
        }

    # -- structure selection ---------------------------------------------

    def cache_shadow(self, side: str) -> ShadowStructure:
        return self.shadow_icache if side == "i" else self.shadow_dcache

    def tlb_shadow(self, side: str) -> ShadowStructure:
        return self.shadow_itlb if side == "i" else self.shadow_dtlb

    def all_structures(self) -> List[ShadowStructure]:
        return list(self._structures)

    # -- pipeline interface -------------------------------------------------

    def set_cycle(self, cycle: int) -> None:
        self._now = cycle

    def sink_for(self, uop: "DynUop") -> ShadowFillSink:
        """Fill sink routing this micro-op's state into shadow."""
        return ShadowFillSink(self, uop)

    def can_accept_data_access(self) -> bool:
        """BLOCK policy: whether a new data-side access may issue.

        A single access can produce at most walk_levels page-table lines
        plus one data line plus one translation; we require one free slot
        in each d-side structure, which is the conservative stall rule.
        """
        if not self._block_on_full:
            return True
        return (self.shadow_dcache.has_space()
                and self.shadow_dtlb.has_space())

    def record_line(self, side: str, line_addr: int, uop: "DynUop") -> None:
        structure = self.cache_shadow(side)
        entry = structure.fill(line_addr, uop.seq, None, self._now)
        if entry is not None:
            self._entries_by_owner.setdefault(uop.seq, []).append(
                _OwnedEntry(structure, entry, side, "line"))

    def record_translation(self, side: str, translation: Translation,
                           uop: "DynUop") -> None:
        structure = self.tlb_shadow(side)
        entry = structure.fill(translation.vpn, uop.seq, translation,
                               self._now)
        if entry is not None:
            self._entries_by_owner.setdefault(uop.seq, []).append(
                _OwnedEntry(structure, entry, side, "translation"))

    # -- promotion / annulment ----------------------------------------------

    def promote(self, uop: "DynUop") -> int:
        """Move the micro-op's shadow state into the committed structures.

        Returns the number of entries promoted.  Idempotent: WFB promotes
        when branch dependences clear, and the later commit of the same
        micro-op finds nothing left to move.
        """
        # The flag is meaningful even when nothing has been recorded
        # yet: WFB may promote before the micro-op has executed (no
        # older unresolved branches), and from then on its fills are
        # non-speculative — the core routes them straight to the
        # committed structures (see ``Core._sink``).
        uop.promoted = True
        owned = self._entries_by_owner.pop(uop.seq, None)
        if not owned:
            return 0
        for item in owned:
            if item.kind == "line":
                self.hierarchy.install_line(item.side, item.entry.key)
            else:
                translation = item.entry.payload
                if isinstance(translation, Translation):
                    self.hierarchy.install_translation(item.side, translation)
            item.structure.release_committed(item.entry)
        self.promotions += len(owned)
        return len(owned)

    def annul(self, uop: "DynUop") -> int:
        """Discard the squashed micro-op's shadow state in place."""
        owned = self._entries_by_owner.pop(uop.seq, None)
        if not owned:
            return 0
        for item in owned:
            item.structure.annul(item.entry)
        return len(owned)

    def on_commit(self, uop: "DynUop") -> None:
        """Commit-time hook (both policies promote whatever remains)."""
        self.promote(uop)

    def on_squash(self, uop: "DynUop") -> None:
        """Squash-time hook: annul everything the micro-op produced.

        Under WFB a squashed micro-op may already have been promoted
        (its branches resolved before an older *fault* squashed it) —
        that is exactly the WFB/Meltdown hole the paper describes, and it
        is preserved faithfully here: promoted state stays in the caches.
        """
        if uop.promoted:
            self.promoted_then_squashed += 1
        self.annul(uop)

    def on_branch_resolved(self, uop: "DynUop") -> None:
        """WFB promotion point, called by the core when a micro-op's last
        older unresolved branch resolves correctly."""
        if self._wfb:
            self.promote(uop)

    # -- sampling -----------------------------------------------------------

    def sample_occupancy(self, count: int = 1) -> None:
        """Record every structure's current occupancy for ``count``
        cycles (the core passes a whole idle span at once) by advancing
        the clock the structures share."""
        self._sampled[0] += count

    # -- invariant surface ---------------------------------------------------

    def invariant_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-structure accounting read by the verification harness.

        For every shadow structure: accepted ``fills`` must equal
        ``committed + annulled + residual`` at any quiescent point, and
        after a run drains, ``residual`` must be zero — squashed
        speculative state never lingers.  ``promoted_then_squashed``
        (engine-wide) counts wrong-path micro-ops whose state reached
        the committed structures before the squash.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for structure in self._structures:
            stats[structure.name] = {
                "fills": structure.stats.counter("fills").value,
                "drops": structure.stats.counter("drops").value,
                "blocks": structure.stats.counter("blocks").value,
                "committed": structure.commit_count,
                "annulled": structure.annul_count,
                "residual": structure.occupancy(),
            }
        stats["engine"] = {
            "promotions": self.promotions,
            "promoted_then_squashed": self.promoted_then_squashed,
        }
        return stats


class _OwnedEntry:
    """Bookkeeping triple: which structure, which entry, what kind."""

    __slots__ = ("structure", "entry", "side", "kind")

    def __init__(self, structure: ShadowStructure, entry: ShadowEntry,
                 side: str, kind: str) -> None:
        self.structure = structure
        self.entry = entry
        self.side = side
        self.kind = kind
