"""Translation lookaside buffers.

A TLB caches :class:`~repro.memory.paging.Translation` entries keyed by
virtual page number.  Like the caches it is fully inspectable (``contains``)
so attack receivers can time page accesses, and like the caches its ``fill``
is the operation SafeSpec redirects into shadow state.

Crucially for Meltdown, a TLB will happily cache the translation of a
supervisor page requested by user code — the permission bits travel with
the entry and are only *enforced* at commit time by the pipeline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.memory.paging import Translation
from repro.statistics import StatRegistry


@dataclass(frozen=True)
class TLBConfig:
    """Geometry and timing of one TLB (modelled fully associative)."""

    name: str
    entries: int
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigError(f"{self.name}: TLB needs >= 1 entry")
        if self.hit_latency < 0:
            raise ConfigError(f"{self.name}: hit latency must be >= 0")


class TLB:
    """A fully associative, LRU-replaced translation cache."""

    __slots__ = ("config", "stats", "_hits", "_misses", "_fills",
                 "_evictions", "_entries", "_capacity")

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self.stats = StatRegistry(config.name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._fills = self.stats.counter("fills")
        self._evictions = self.stats.counter("evictions")
        self._entries: "OrderedDict[int, Translation]" = OrderedDict()
        self._capacity = config.entries

    def lookup(self, vpn: int) -> Optional[Translation]:
        """Timing-path lookup: updates LRU and hit/miss statistics."""
        entry = self._entries.get(vpn)
        if entry is not None:
            self._entries.move_to_end(vpn)
            self._hits.value += 1
            return entry
        self._misses.value += 1
        return None

    def fill(self, translation: Translation) -> Optional[int]:
        """Install a translation; returns the evicted VPN if any."""
        vpn = translation.vpn
        if vpn in self._entries:
            self._entries[vpn] = translation
            self._entries.move_to_end(vpn)
            return None
        self._fills.value += 1
        victim: Optional[int] = None
        if len(self._entries) >= self._capacity:
            victim, _ = self._entries.popitem(last=False)
            self._evictions.value += 1
        self._entries[vpn] = translation
        return victim

    def contains(self, vpn: int) -> bool:
        """Non-perturbing presence check (attack receivers / tests)."""
        return vpn in self._entries

    def peek(self, vpn: int) -> Optional[Translation]:
        """Return the entry for ``vpn`` without updating LRU or statistics.

        Speculative lookups under SafeSpec use this so that mis-speculated
        paths cannot perturb even the replacement state of the real TLB.
        """
        return self._entries.get(vpn)

    def refresh(self, vpn: int) -> bool:
        """Refresh LRU recency of an entry *if present* (no insertion,
        no statistics).  Commit-time recency restoration must never
        install state — a dropped shadow fill stays lost."""
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
            return True
        return False

    def invalidate(self, vpn: int) -> bool:
        """Drop the entry for ``vpn``; returns whether it was present."""
        if vpn in self._entries:
            del self._entries[vpn]
            return True
        return False

    def flush_all(self) -> None:
        self._entries.clear()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> "tuple[Translation, ...]":
        """Resident translations, LRU-first (warm-state dump).

        Statistics are excluded, mirroring :meth:`Cache.snapshot`.
        """
        return tuple(self._entries.values())

    def restore(self, translations: "tuple[Translation, ...]") -> None:
        """Replace contents with a :meth:`snapshot` (LRU order preserved).

        Raises :class:`ConfigError` when the snapshot holds more entries
        than this TLB, as :meth:`Cache.restore` does for an over-full set.
        """
        if len(translations) > self._capacity:
            raise ConfigError(
                f"{self.config.name}: snapshot holds {len(translations)} "
                f"entries, TLB has {self._capacity}")
        self._entries.clear()
        for translation in translations:
            self._entries[translation.vpn] = translation

    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def miss_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._misses.value / total if total else 0.0

    def __repr__(self) -> str:
        return f"TLB({self.config.name}, {self.config.entries} entries)"
