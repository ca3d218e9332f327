"""Pipeline event tracing.

A :class:`PipelineTracer` subscribes to a cycle-backend
:class:`~repro.machine.Machine` and records one :class:`TraceEvent` per
pipeline action (fetch, dispatch, issue, commit, squash, fault) — the
standard debugging aid of every production simulator.  Events can be
filtered by kind or sequence range and rendered as a per-instruction
timeline.

Usage::

    machine = Machine(policy=CommitPolicy.WFC)
    tracer = PipelineTracer().attach(machine)
    machine.run(program)
    tracer.detach()
    print(tracer.render_timeline(limit=20))

A hand-built core takes a tracer directly: ``Core(..., observer=tracer)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConfigError
from repro.pipeline.uop import DynUop

if TYPE_CHECKING:
    from repro.machine import Machine

EVENT_KINDS = ("fetch", "dispatch", "issue", "commit", "squash", "fault")


@dataclass(frozen=True)
class TraceEvent:
    """One pipeline event."""

    cycle: int
    kind: str
    seq: int
    pc: int
    text: str

    def __str__(self) -> str:
        return (f"{self.cycle:8d}  {self.kind:9s} #{self.seq:<6d} "
                f"{self.pc:#08x}  {self.text}")


def _detail(kind: str, uop: DynUop) -> str:
    if kind == "dispatch":
        return f"deps={sorted(uop.producers)}"
    if kind == "fault":
        if uop.vaddr is None:
            return str(uop.fault)
        return f"{uop.fault} @ {uop.vaddr:#x}"
    return str(uop.inst)


class PipelineTracer:
    """Records the pipeline events of the runs on one machine."""

    def __init__(self, kinds: Optional[List[str]] = None,
                 max_events: int = 100_000) -> None:
        for kind in kinds or ():
            if kind not in EVENT_KINDS:
                raise ConfigError(f"unknown event kind {kind!r}")
        self._kinds = set(kinds) if kinds else set(EVENT_KINDS)
        self._max_events = max_events
        self.events: List[TraceEvent] = []
        self._machine: Optional[Machine] = None

    def __call__(self, kind: str, cycle: int,
                 uop: Optional[DynUop]) -> None:
        if kind in self._kinds and len(self.events) < self._max_events:
            self.events.append(TraceEvent(
                cycle=cycle, kind=kind, seq=uop.seq, pc=uop.pc,
                text=_detail(kind, uop)))

    # ------------------------------------------------------------------

    def attach(self, machine: Machine) -> "PipelineTracer":
        """Start recording the events of ``machine``'s runs."""
        if self._machine is not None:
            raise ConfigError("tracer is already attached")
        if machine.observer is not None:
            raise ConfigError("the machine already has an observer")
        if machine.backend != "cycle":
            raise ConfigError(f"the {machine.backend!r} backend has no "
                              f"pipeline events; trace a cycle machine")
        machine.observer = self
        self._machine = machine
        return self

    def detach(self) -> List[TraceEvent]:
        """Stop recording; returns the captured events."""
        if self._machine is None:
            raise ConfigError("tracer is not attached")
        self._machine.observer = None
        self._machine = None
        return self.events

    # ------------------------------------------------------------------

    def filter(self, kind: Optional[str] = None,
               seq: Optional[int] = None) -> List[TraceEvent]:
        """Events matching a kind and/or a micro-op sequence number."""
        selected = self.events
        if kind is not None:
            selected = [e for e in selected if e.kind == kind]
        if seq is not None:
            selected = [e for e in selected if e.seq == seq]
        return list(selected)

    def lifetime(self, seq: int) -> List[TraceEvent]:
        """Every event of one dynamic instruction, in order."""
        return self.filter(seq=seq)

    def render_timeline(self, limit: int = 50) -> str:
        """A readable event log (first ``limit`` events)."""
        header = (f"{'cycle':>8s}  {'event':9s} {'seq':7s} "
                  f"{'pc':8s}  detail")
        lines = [header, "-" * len(header)]
        lines += [str(event) for event in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)
