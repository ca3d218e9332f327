"""The SafeSpec engine: shadow bookkeeping wired into the pipeline.

The engine owns the four shadow structures and binds them beside the
committed levels of its memory hierarchy.  A micro-op is known by its
sequence number, its *owner* seq:

* an access the hierarchy makes with ``owner=seq`` reads that side's
  shadow state and records every cache-line or translation fill it
  produces there (``record_line`` / ``record_translation``), owned by
  ``seq``;
* ``on_commit(seq)`` / ``on_branch_resolved(seq)`` — promotion: the
  owner's entries move into the committed structures per the active
  :class:`~repro.core.policy.CommitPolicy` (WFC promotes at commit, WFB
  when the owning micro-op's older branches have all resolved);
* ``on_squash(seq, promoted)`` — annulment: the squashed micro-op's
  entries vanish without ever touching committed state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.policy import CommitPolicy
from repro.core.shadow import FullPolicy, ShadowEntry, ShadowStructure
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.paging import Translation

# One owned shadow entry: its structure, the entry, its side, and the
# translation it carries (``None`` for a cache line), in fill order.
_Owned = Tuple[ShadowStructure, ShadowEntry, str, Optional[Translation]]


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
        self._line_shadows = {"i": self.shadow_icache,
                              "d": self.shadow_dcache}
        self._tlb_shadows = {"i": self.shadow_itlb, "d": self.shadow_dtlb}
        # owner seq -> entries, so commit/squash are O(owner's entries)
        self._owned: Dict[int, List[_Owned]] = {}
        # Leakage bookkeeping (read by repro.verify): a squashed micro-op
        # whose shadow state was already promoted is committed-state
        # leakage from a wrong path.  WFC can never produce one; WFB can
        # only via the fault hole the paper describes (Section VI).
        self.promotions = 0
        self.promoted_then_squashed = 0
        # The config is frozen: its per-call policy tests are bound once.
        self._wfb = config.policy is CommitPolicy.WFB
        self._block_on_full = config.full_policy is FullPolicy.BLOCK
        hierarchy.bind_shadow(self)

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

    def all_structures(self) -> List[ShadowStructure]:
        return list(self._structures)

    # -- pipeline interface -------------------------------------------------

    def set_cycle(self, cycle: int) -> None:
        """No-op with no caller in the simulator.  The engine keeps no
        clock of its own (occupancy advances through
        :meth:`sample_occupancy`), and per-cycle observers subscribe
        through ``Machine.observer``.  Kept only because the benchmark's
        layer table still names it."""

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

    def record_line(self, side: str, line_addr: int, owner: int) -> None:
        """A cache-line fill lands in ``side``'s shadow cache, owned by
        ``owner`` (lost if the structure is full)."""
        structure = self._line_shadows[side]
        entry = structure.fill(line_addr, owner, None)
        if entry is not None:
            self._owned.setdefault(owner, []).append(
                (structure, entry, side, None))

    def record_translation(self, side: str, translation: Translation,
                           owner: int) -> None:
        """A walked translation lands in ``side``'s shadow TLB."""
        structure = self._tlb_shadows[side]
        entry = structure.fill(translation.vpn, owner, translation)
        if entry is not None:
            self._owned.setdefault(owner, []).append(
                (structure, entry, side, translation))

    # -- promotion / annulment ----------------------------------------------

    def promote(self, seq: int) -> int:
        """Move ``seq``'s shadow state into the committed structures, in
        fill order.

        Returns the number of entries promoted.  Idempotent: WFB promotes
        when branch dependences clear, and the later commit of the same
        micro-op finds nothing left to move.
        """
        owned = self._owned.pop(seq, None)
        if not owned:
            return 0
        hierarchy = self.hierarchy
        for structure, entry, side, translation in owned:
            if translation is None:
                hierarchy.install_line(side, entry.key)
            else:
                hierarchy.install_translation(side, translation)
            structure.release_committed(entry)
        self.promotions += len(owned)
        return len(owned)

    def annul(self, seq: int) -> int:
        """Discard ``seq``'s shadow state in place; returns the count."""
        owned = self._owned.pop(seq, None)
        if not owned:
            return 0
        for structure, entry, _, _ in owned:
            structure.annul(entry)
        return len(owned)

    def on_commit(self, seq: int) -> None:
        """Commit-time hook (both policies promote whatever remains)."""
        if seq in self._owned:
            self.promote(seq)

    def on_squash(self, seq: int, promoted: bool = False) -> None:
        """Squash-time hook: annul everything the micro-op produced.

        ``promoted`` says WFB already promoted the micro-op (its branches
        resolved before an older *fault* squashed it) — that is exactly
        the WFB/Meltdown hole the paper describes, and it is preserved
        faithfully here: promoted state stays in the caches, and the
        squash is counted in ``promoted_then_squashed``.
        """
        if promoted:
            self.promoted_then_squashed += 1
        if seq in self._owned:
            self.annul(seq)

    def on_branch_resolved(self, seq: int) -> None:
        """WFB promotion point, called when a micro-op's last older
        unresolved branch resolves correctly.  From then on the caller
        makes the micro-op's accesses unowned: its fills are
        non-speculative and go straight to the committed structures."""
        if self._wfb:
            self.promote(seq)

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
