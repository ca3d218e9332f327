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
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.machine import Machine

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
    """Watches a machine's shadow occupancy for abnormal growth.

    :meth:`attach` makes the detector the observer
    (``Machine.observer``) of a cycle-backend machine with a SafeSpec
    engine.  At the start of every cycle the core steps, the detector
    reads each shadow structure's occupancy and records an
    :class:`AnomalyEvent` whenever one exceeds its threshold.  The
    cycles the core's clock skips cannot change occupancy, so no
    crossing is missed.  :meth:`detach` empties the slot and returns the
    report.
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
        self._machine: Optional[Machine] = None
        self._alarmed_cycles: Dict[str, int] = {}

    def __call__(self, kind: str, cycle: int, _uop: object) -> None:
        if kind == "cycle":
            self._sample(cycle)

    # ------------------------------------------------------------------

    def attach(self, machine: Machine) -> "ShadowAnomalyDetector":
        """Start monitoring ``machine``; returns self for chaining."""
        if self._machine is not None:
            raise ConfigError("detector is already attached")
        if machine.observer is not None:
            raise ConfigError("the machine already has an observer")
        if machine.backend != "cycle":
            raise ConfigError(f"the {machine.backend!r} backend has no "
                              f"cycle events; monitor a cycle machine")
        if machine.engine is None:
            raise ConfigError(f"policy {machine.policy.name} has no "
                              f"shadow structures to monitor")
        machine.observer = self
        self._machine = machine
        return self

    def detach(self) -> DetectorReport:
        """Stop monitoring and return the report."""
        if self._machine is None:
            raise ConfigError("detector is not attached")
        self._machine.observer = None
        self._machine = None
        return self.report

    # ------------------------------------------------------------------

    def _sample(self, cycle: int) -> None:
        for structure in self._machine.engine.all_structures():
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
