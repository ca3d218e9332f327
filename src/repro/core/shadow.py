"""Shadow structures: associatively filled, table-looked-up speculative state.

One :class:`ShadowStructure` instance backs each of the four shadowed
components (shadow d-cache, shadow i-cache, shadow iTLB, shadow dTLB).
Entries are keyed by cache-line address (caches) or virtual page number
(TLBs) and tagged with the sequence number of the owning micro-op so that
commit/squash can move or annul exactly the right state.

When the structure is full, behaviour follows the configured
:class:`FullPolicy` — both options the paper discusses in Section V:

* ``DROP``  — the incoming fill is discarded (loss of an update to the
  committed state; performance effect only).
* ``BLOCK`` — the requesting instruction stalls until space frees up.

Both behaviours are *observable* by co-speculative code, which is exactly
the transient-speculation-attack (TSA) channel; the mitigation is
worst-case sizing, at which neither policy ever triggers.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.statistics import StatRegistry


class FullPolicy(enum.Enum):
    """What happens when a fill arrives and the structure is full."""

    DROP = "drop"
    BLOCK = "block"


class ShadowEntry:
    """One speculatively produced item (cache line or translation)."""

    __slots__ = ("key", "owner_seq", "payload")

    def __init__(self, key: int, owner_seq: int, payload: object) -> None:
        self.key = key
        self.owner_seq = owner_seq
        self.payload = payload


class ShadowStructure:
    """A bounded associative table of speculative entries.

    Lookups are by key (any in-flight instruction on the same path may hit
    on a line another instruction fetched, paper Section IV-A); ownership
    is by micro-op sequence number, so commit and squash operate on the
    owner's entries only.
    """

    __slots__ = ("name", "capacity", "full_policy", "stats",
                 "_fills", "_drops", "_blocks", "_committed",
                 "_annulled", "_occupancy_hist", "_clock", "_occ_mark",
                 "_by_key", "_count", "_lost")

    def __init__(self, name: str, capacity: int,
                 full_policy: FullPolicy = FullPolicy.DROP,
                 clock: Optional[List[int]] = None) -> None:
        if capacity < 1:
            raise ConfigError(f"{name}: capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.full_policy = full_policy
        self.stats = StatRegistry(name)
        self._fills = self.stats.counter("fills")
        self._drops = self.stats.counter("drops")
        self._blocks = self.stats.counter("blocks")
        # Where a fill past capacity is counted under this policy.
        self._lost = (self._drops if full_policy is FullPolicy.DROP
                      else self._blocks)
        self._committed = self.stats.counter("committed_entries")
        self._annulled = self.stats.counter("annulled_entries")
        self._occupancy_hist = self.stats.histogram("occupancy")
        # ``clock[0]`` counts the cycles sampled so far (an engine's four
        # structures share it).  Every cycle since ``_occ_mark`` saw the
        # current count, so they are charged to it just before it moves.
        self._clock = [0] if clock is None else clock
        self._occ_mark = self._clock[0]
        # key -> list of entries (multiple owners may fetch the same key
        # on diverging paths before one of them is squashed).  A key is
        # present only while it has entries: the memory hierarchy binds
        # this dict and probes it directly.
        self._by_key: Dict[int, List[ShadowEntry]] = {}
        self._count = 0

    @property
    def occupancy_histogram(self):
        """The occupancy histogram with every sampled cycle charged."""
        self._charge_occupancy()
        return self._occupancy_hist

    def _charge_occupancy(self) -> None:
        """Record the cycles sampled since the last charge at the
        current count (called before the count changes)."""
        now = self._clock[0]
        if now != self._occ_mark:
            self._occupancy_hist.record(self._count, now - self._occ_mark)
            self._occ_mark = now

    # -- capacity -----------------------------------------------------------

    def occupancy(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count >= self.capacity

    def has_space(self) -> bool:
        return self._count < self.capacity

    # -- lookup / fill -------------------------------------------------------

    def lookup(self, key: int) -> Optional[ShadowEntry]:
        """Associative lookup by key; newest entry wins."""
        entries = self._by_key.get(key)
        return entries[-1] if entries else None

    def fill(self, key: int, owner_seq: int,
             payload: object) -> Optional[ShadowEntry]:
        """Insert a new entry owned by ``owner_seq``.

        Returns the entry, or ``None`` when the structure is full and the
        policy is DROP (the fill is lost).  Callers implementing BLOCK must
        check :meth:`has_space` *before* issuing the request; a fill that
        arrives at a full BLOCK-policy structure is still dropped but
        counted as a block event.
        """
        if self._count >= self.capacity:
            self._lost.value += 1
            return None
        entry = ShadowEntry(key, owner_seq, payload)
        self._by_key.setdefault(key, []).append(entry)
        self._charge_occupancy()
        self._count += 1
        self._fills.value += 1
        return entry

    # -- commit / annul ------------------------------------------------------

    def _remove(self, entry: ShadowEntry) -> None:
        entries = self._by_key.get(entry.key)
        if not entries:
            return
        try:
            entries.remove(entry)
        except ValueError:
            return
        if not entries:
            del self._by_key[entry.key]
        self._charge_occupancy()
        self._count -= 1

    def release_committed(self, entry: ShadowEntry) -> None:
        """Remove an entry whose state moved to the committed structures."""
        self._remove(entry)
        self._committed.value += 1

    def annul(self, entry: ShadowEntry) -> None:
        """Remove an entry whose owner was squashed (leaves no trace)."""
        self._remove(entry)
        self._annulled.value += 1

    # -- introspection ---------------------------------------------------------

    def sample_occupancy(self, count: int = 1) -> None:
        """Sample the current occupancy for ``count`` cycles (per-cycle
        sizing histograms, Figures 6-9 of the paper) by advancing the
        clock, which is shared with the engine's other structures."""
        self._clock[0] += count

    def keys(self) -> Iterable[int]:
        return self._by_key.keys()

    def entries_snapshot(self) -> List[Tuple[int, int]]:
        """(key, owner_seq) pairs, for tests and debugging."""
        return [(e.key, e.owner_seq)
                for entries in self._by_key.values() for e in entries]

    @property
    def commit_count(self) -> int:
        return self._committed.value

    @property
    def annul_count(self) -> int:
        return self._annulled.value

    def commit_rate(self) -> float:
        """Fraction of retired shadow entries that were committed rather
        than annulled (Figure 16 of the paper)."""
        total = self._committed.value + self._annulled.value
        return self._committed.value / total if total else 0.0

    def __repr__(self) -> str:
        return (f"ShadowStructure({self.name}, {self._count}/{self.capacity},"
                f" policy={self.full_policy.value})")
