"""Side-channel receivers: flush+reload, TLB probing and prime+probe.

The receivers model the attacker's *committed* measurement loop
(``rdtsc; access; rdtsc``) using the machine's non-perturbing probe
interface, which returns exactly the latency such a timed access would
observe against current committed state.  Speculative/shadow state is
invisible to them by construction — which is the point of SafeSpec.

Every receiver has the two steps the attack runner drives: ``flush()``
before the trigger and ``probe()`` after it.  A receiver returns only an
observation (its hot slots); :func:`leaked_value` alone turns that into
what leaked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, List, Optional, Sequence

from repro.machine import Machine
from repro.memory.paging import PAGE_SIZE

# A committed L1/L2 hit is < ~60 cycles in the Table II configuration; a
# miss to memory is >= 191.  Anything under this threshold counts as
# "present".
DEFAULT_HIT_THRESHOLD = 100

# TLB receiver: a TLB hit costs 1 cycle; the cheapest possible walk is
# walk_levels (4) L1 hits = 16 cycles.
DEFAULT_TLB_THRESHOLD = 8


def leaked_value(hot_slots: Sequence[int], benign: Collection[int] = (),
                 secret: Optional[int] = None,
                 secret_slot: Optional[int] = None) -> Optional[int]:
    """What leaked, read from a receiver's hot slots: the one hot slot no
    ``benign`` access explains, else None.

    A receiver coarser than one slot per value names only a class of
    values (Prime+Probe sees an L1 set, four byte values per set).  For
    one, the attack passes ``secret_slot``, the slot the ``secret``'s
    access lands in, and the secret counts as recovered when that slot
    is the one hot slot.
    """
    hot = [slot for slot in hot_slots if slot not in benign]
    if len(hot) != 1:
        return None
    if secret_slot is None:
        return hot[0]
    return secret if hot[0] == secret_slot else None


@dataclass
class ProbeOutcome:
    """Result of scanning all probe slots."""

    latencies: List[int]
    hot_slots: List[int]

    @property
    def value(self) -> Optional[int]:
        """The leaked value: the unique hot slot, else None."""
        return leaked_value(self.hot_slots)


class FlushReloadChannel:
    """Classic flush+reload over an attacker-controlled probe array.

    The probe array has ``slots`` cache-line-aligned entries spaced
    ``stride`` bytes apart; the victim's secret-dependent access touches
    slot ``secret`` and the receiver finds the hot line.  With
    ``side="i"`` the receiver times a committed *fetch* of each slot
    instead of a load (the paper's I-cache variant).
    """

    def __init__(self, machine: Machine, base: int, slots: int = 256,
                 stride: int = 64,
                 threshold: int = DEFAULT_HIT_THRESHOLD,
                 side: str = "d") -> None:
        self.machine = machine
        self.base = base
        self.slots = slots
        self.stride = stride
        self.threshold = threshold
        self.side = side

    def slot_address(self, slot: int) -> int:
        return self.base + slot * self.stride

    def map(self) -> None:
        """Map the probe array into the attacker's address space."""
        self.machine.map_user_range(self.base, self.slots * self.stride)

    def flush(self) -> None:
        """Flush every probe slot (the attack's setup step)."""
        for slot in range(self.slots):
            self.machine.flush_address(self.slot_address(slot))

    def probe(self) -> ProbeOutcome:
        """Time a committed access to every slot; hot slots are hits."""
        return _outcome(self.machine.probe_latencies(
            [self.slot_address(s) for s in range(self.slots)],
            side=self.side), self.threshold)


class TlbProbeChannel(FlushReloadChannel):
    """Receiver for the TLB variants: times the *translation* of one page
    per probe slot.  A speculatively installed TLB entry makes the
    translation a 1-cycle hit; otherwise a multi-access page walk runs."""

    def __init__(self, machine: Machine, base: int, slots: int = 256,
                 side: str = "d",
                 threshold: int = DEFAULT_TLB_THRESHOLD) -> None:
        super().__init__(machine, base, slots, PAGE_SIZE, threshold, side)

    def flush(self) -> None:
        """Nothing to flush: a translation cannot be clflushed, so the
        attack never touches the probe pages on its committed path."""

    def probe(self) -> ProbeOutcome:
        return _outcome([self.machine.probe_translation_latency(
            self.slot_address(s), side=self.side)
            for s in range(self.slots)], self.threshold)


class PrimeProbeChannel:
    """Prime+Probe against the L1 data cache (the paper's reference [21]).

    Where flush+reload needs ``clflush`` and shared memory, prime+probe
    needs neither: the attacker fills ("primes") every way of the
    monitored L1 sets with its own lines, lets the victim run, then
    re-times its lines — a slow line means the victim's secret-dependent
    access landed in (and evicted from) that set.

    The victim's unrelated accesses evict attacker lines too, so the
    receiver works differentially: :meth:`calibrate` records the noise
    sets left by a benign victim run, and :meth:`probe` reports only the
    sets that newly became hot.
    """

    def __init__(self, machine: Machine, prime_base: int = 0x300_0000,
                 l1_hit_threshold: int = 10) -> None:
        self.machine = machine
        self.prime_base = prime_base
        self.threshold = l1_hit_threshold
        config = machine.hierarchy.l1d.config
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self.line_bytes = config.line_bytes
        self._way_stride = self.num_sets * self.line_bytes
        self._noise_sets: set = set()
        machine.map_user_range(prime_base,
                               self.ways * self._way_stride)

    def line_address(self, set_index: int, way: int) -> int:
        """Attacker line mapping to ``set_index`` (one per way)."""
        return (self.prime_base + set_index * self.line_bytes
                + way * self._way_stride)

    def set_of(self, vaddr: int) -> int:
        """The L1 set a victim address maps to."""
        return self.machine.hierarchy.l1d.set_index(vaddr)

    def prime(self) -> None:
        """Architecturally load every way of every set."""
        from repro.attacks.gadgets import warm_lines

        addresses = [self.line_address(s, w)
                     for w in range(self.ways)
                     for s in range(self.num_sets)]
        warm_lines(self.machine, addresses, code_base=0x74_000)

    def _evicted_sets(self) -> set:
        """Sets with at least one slow attacker line.

        One scan times every line, translating each page of the prime
        region once (with the Table II L1D, a way is one page).
        """
        sets = range(self.num_sets)
        latencies = self.machine.probe_latencies(
            [self.line_address(s, w) for w in range(self.ways) for s in sets])
        return {index % self.num_sets
                for index, latency in enumerate(latencies)
                if latency > self.threshold}

    def calibrate(self) -> set:
        """Record the sets a benign victim run perturbs (call after
        prime + benign run)."""
        self._noise_sets = self._evicted_sets()
        return set(self._noise_sets)

    def flush(self) -> None:
        """Nothing to flush: :meth:`prime` resets this receiver, and the
        attack primes before its own flushes so the prime run cannot
        bring a flushed line back."""

    def probe(self) -> ProbeOutcome:
        """Sets newly evicted relative to the calibration run."""
        signal = sorted(self._evicted_sets() - self._noise_sets)
        return ProbeOutcome(latencies=[], hot_slots=signal)


def _outcome(latencies: List[int], threshold: int) -> ProbeOutcome:
    """The hot slots of one scan: those faster than ``threshold``."""
    hot = [slot for slot, lat in enumerate(latencies) if lat < threshold]
    return ProbeOutcome(latencies=latencies, hot_slots=hot)
