"""Set-associative cache model with true-LRU replacement.

The cache stores *line presence*, not data — data lives in the backing
:class:`~repro.memory.dram.MainMemory`.  That is sufficient for both timing
(hit/miss latency) and the side-channel experiments (flush+reload and
prime+probe observe presence, not contents).

Design notes mapping to the paper:

* ``fill`` is the leaky operation SafeSpec intercepts: in the baseline it
  is called during speculative execution, in SafeSpec only when shadow
  state is committed.
* ``clflush`` lives on the hierarchy, which deletes the line from every
  level's bound sets (paper Section IV: "with the availability of
  instructions such as clflush on x86, an attacker is able to evict
  data").
* ``contains``/``snapshot`` are non-perturbing inspection used by the
  attack receivers and by tests.  The timing-path lookup, which updates
  replacement state and the hit/miss counters, is the memory hierarchy's
  walk over its levels' bound sets
  (:attr:`~repro.memory.hierarchy.MemoryHierarchy.levels`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.statistics import StatRegistry


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency: int = 4

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.line_bytes):
            raise ConfigError(
                f"{self.name}: line size must be a power of two, "
                f"got {self.line_bytes}")
        if self.size_bytes <= 0 or self.size_bytes % self.line_bytes:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not a positive "
                f"multiple of the line size {self.line_bytes}")
        lines = self.size_bytes // self.line_bytes
        if self.associativity <= 0:
            raise ConfigError(
                f"{self.name}: associativity must be >= 1, "
                f"got {self.associativity}")
        if lines % self.associativity:
            raise ConfigError(
                f"{self.name}: {lines} lines not divisible by "
                f"associativity {self.associativity}")
        if not _is_power_of_two(lines // self.associativity):
            raise ConfigError(f"{self.name}: set count must be a power of two")
        if self.hit_latency < 1:
            raise ConfigError(f"{self.name}: hit latency must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // self.line_bytes // self.associativity

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


class _LazySets(dict):
    """Set index -> that set's lines, created the first time the timing
    path indexes it.  Most of an L2/L3's sets are never touched by a
    short job, so building them eagerly dominated machine construction.
    """

    __slots__ = ()

    def __missing__(self, index: int) -> "OrderedDict[int, bool]":
        cache_set = self[index] = OrderedDict()
        return cache_set


class Cache:
    """One set-associative cache level with true-LRU replacement.

    Addresses handed to the cache are *physical* addresses; the caller is
    responsible for translation.  All methods operate on line granularity.
    """

    __slots__ = ("config", "stats", "_hits", "_misses", "_fills",
                 "_evictions", "_flushes", "_sets", "_line_mask",
                 "_set_shift", "_set_mask", "_associativity")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = StatRegistry(config.name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._fills = self.stats.counter("fills")
        self._evictions = self.stats.counter("evictions")
        self._flushes = self.stats.counter("flushes")
        # Precomputed indexing: line size and set count are powers of two
        # (enforced by CacheConfig), so line/set extraction is mask+shift.
        self._line_mask = ~(config.line_bytes - 1)
        self._set_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._associativity = config.associativity
        # One OrderedDict per set: line_addr -> True, LRU order = insertion
        # order with move_to_end on touch.  Sets are created on first use;
        # the mapping itself lives as long as the cache (the fast backend
        # binds it once).  Inspection goes through .get and never creates.
        self._sets = _LazySets()

    # -- address helpers -------------------------------------------------

    def line_address(self, addr: int) -> int:
        """Address of the line containing ``addr``."""
        return addr & self._line_mask

    def set_index(self, addr: int) -> int:
        """Set index selected by ``addr``."""
        return (addr >> self._set_shift) & self._set_mask

    # -- installation -----------------------------------------------------

    def fill(self, addr: int) -> Optional[int]:
        """Install the line containing ``addr``.

        Returns the evicted line address when the set was full, else
        ``None``.  Filling a line that is already present just refreshes
        its LRU position.
        """
        line = addr & self._line_mask
        cache_set = self._sets[(addr >> self._set_shift) & self._set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            return None
        self._fills.value += 1
        victim: Optional[int] = None
        if len(cache_set) >= self._associativity:
            victim, _ = cache_set.popitem(last=False)
            self._evictions.value += 1
        cache_set[line] = True
        return victim

    # -- non-perturbing inspection ----------------------------------------

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is present (no LRU update)."""
        return (addr & self._line_mask) in \
            self._sets.get((addr >> self._set_shift) & self._set_mask, ())

    def occupancy(self) -> int:
        """Total number of resident lines."""
        return sum(len(s) for s in self._sets.values())

    # -- invalidation ------------------------------------------------------

    def flush_all(self) -> None:
        """Invalidate the entire cache."""
        self._sets.clear()

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> List[Tuple[int, ...]]:
        """Resident line addresses per set, LRU-first (warm-state dump).

        Statistics are deliberately excluded: a restored cache is warm but
        starts counting from zero, like a measurement window should.
        """
        get = self._sets.get
        return [tuple(get(index, ()))
                for index in range(self.config.num_sets)]

    def restore(self, indices: Sequence[int],
                sets: Iterable[Iterable[int]]) -> None:
        """Replace contents with the lines of the sets ``indices`` name,
        ``sets`` giving each one's lines LRU-first (every other set
        empty): the non-empty sets of a :meth:`snapshot`, as a
        checkpoint holds them.  Nothing changes if the sets do not fit.
        """
        name = self.config.name
        if indices and not 0 <= min(indices) <= max(indices) \
                < self.config.num_sets:
            raise ConfigError(f"{name}: snapshot names sets outside "
                              f"0..{self.config.num_sets - 1}")
        restored = list(map(OrderedDict.fromkeys, sets, repeat(True)))
        if len(restored) != len(indices):
            raise ConfigError(f"{name}: snapshot names {len(indices)} "
                              f"sets but holds {len(restored)}")
        if max(map(len, restored), default=0) > self._associativity:
            for index, lines in zip(indices, restored):
                if len(lines) > self._associativity:
                    raise ConfigError(
                        f"{name}: snapshot set {index} holds "
                        f"{len(lines)} lines, cache is "
                        f"{self._associativity}-way")
        self._sets.clear()
        self._sets.update(zip(indices, restored))

    # -- statistics ---------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def accesses(self) -> int:
        return self._hits.value + self._misses.value

    def miss_rate(self) -> float:
        total = self.accesses
        return self._misses.value / total if total else 0.0

    def __repr__(self) -> str:
        cfg = self.config
        return (f"Cache({cfg.name}, {cfg.size_bytes // 1024}KB, "
                f"{cfg.associativity}-way, {cfg.num_sets} sets)")
