"""Shadow-occupancy anomaly detection (paper Section VII future work).

The paper observes that normal programs leave the worst-case-sized shadow
structures mostly empty, and suggests that "abnormal growth of the
structures [can be used] as an indicator of a possible attack".  This
module implements that detector: it watches per-cycle shadow occupancy
against per-structure thresholds learned from benign executions and
raises an alert when a speculation window pushes occupancy past them.

The TSA Trojan is exactly such an anomaly: to create contention it must
drive a shadow structure to (near) capacity inside one speculation
window, far above the p99.99 occupancy of any benign workload
(EXPERIMENTS.md, Figures 6-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.safespec import SafeSpecEngine
from repro.errors import ConfigError

# Default alert thresholds: comfortably above the suite's p99.99
# occupancies (Figures 6-9 reproduction) and far below the Secure bounds.
DEFAULT_THRESHOLDS = {
    "shadow_dcache": 48,
    "shadow_icache": 32,
    "shadow_itlb": 12,
    "shadow_dtlb": 12,
}


@dataclass(frozen=True)
class AnomalyEvent:
    """One threshold crossing."""

    cycle: int
    structure: str
    occupancy: int
    threshold: int

    def __str__(self) -> str:
        return (f"cycle {self.cycle}: {self.structure} occupancy "
                f"{self.occupancy} > threshold {self.threshold}")


@dataclass
class DetectorReport:
    """Summary of one monitored execution."""

    events: List[AnomalyEvent] = field(default_factory=list)
    peak_occupancy: Dict[str, int] = field(default_factory=dict)

    @property
    def attack_suspected(self) -> bool:
        return bool(self.events)


class ShadowAnomalyDetector:
    """Watches a SafeSpec engine's shadow occupancy for abnormal growth.

    Attach with :meth:`attach`; the detector samples on every engine
    cycle tick (piggybacking on ``set_cycle``) and records an
    :class:`AnomalyEvent` whenever a structure exceeds its threshold.
    The core ticks only the cycles it steps; the cycles its clock skips
    cannot change occupancy, so no crossing is missed.  Detach restores
    the engine.
    """

    def __init__(self, thresholds: Optional[Dict[str, int]] = None) -> None:
        self.thresholds = dict(DEFAULT_THRESHOLDS)
        if thresholds:
            for name, value in thresholds.items():
                if name not in self.thresholds:
                    raise ConfigError(f"unknown shadow structure {name!r}")
                if value < 1:
                    raise ConfigError(f"{name}: threshold must be >= 1")
                self.thresholds[name] = value
        self.report = DetectorReport(
            peak_occupancy={name: 0 for name in self.thresholds})
        self._engine: Optional[SafeSpecEngine] = None
        self._original_set_cycle = None
        self._alarmed_cycles: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def attach(self, engine: SafeSpecEngine) -> "ShadowAnomalyDetector":
        """Start monitoring ``engine``; returns self for chaining."""
        if self._engine is not None:
            raise ConfigError("detector is already attached")
        self._engine = engine
        self._original_set_cycle = engine.set_cycle

        def monitored_set_cycle(cycle: int) -> None:
            self._original_set_cycle(cycle)
            self._sample(cycle)

        engine.set_cycle = monitored_set_cycle
        return self

    def detach(self) -> DetectorReport:
        """Stop monitoring and return the report."""
        if self._engine is None:
            raise ConfigError("detector is not attached")
        # attach() shadowed the class method with an instance attribute;
        # removing it restores the engine's own method.
        del self._engine.set_cycle
        self._engine = None
        self._original_set_cycle = None
        return self.report

    # ------------------------------------------------------------------

    def _sample(self, cycle: int) -> None:
        for structure in self._engine.all_structures():
            name = structure.name
            occupancy = structure.occupancy()
            if occupancy > self.report.peak_occupancy.get(name, 0):
                self.report.peak_occupancy[name] = occupancy
            threshold = self.thresholds.get(name)
            if threshold is None or occupancy <= threshold:
                self._alarmed_cycles.pop(name, None)
                continue
            # De-bounce: one event per continuous excursion.
            if name not in self._alarmed_cycles:
                self._alarmed_cycles[name] = cycle
                self.report.events.append(AnomalyEvent(
                    cycle=cycle, structure=name, occupancy=occupancy,
                    threshold=threshold))
