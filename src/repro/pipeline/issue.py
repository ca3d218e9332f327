"""Issue queue and functional-unit availability."""

from __future__ import annotations

import operator
from typing import Iterator, List

from repro.errors import SimulationError
from repro.isa.instructions import FU_CLASS_INDEX, InstructionClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.uop import DISPATCHED, SQUASHED, DynUop

_BY_SEQ = operator.attrgetter("seq")


class FunctionalUnits:
    """Per-cycle issue-slot accounting for each unit class.

    Capacity and usage are dense lists indexed by the instruction-class
    ``fu_index`` decoded at assembly time — the per-cycle reset and the
    per-issue claim are plain list operations with no enum hashing.
    The core's issue stage claims on the two lists itself (and marks
    them dirty); usage is reset in place, never rebound.
    """

    __slots__ = ("_capacity", "_used", "_zeros", "_dirty")

    def __init__(self, config: CoreConfig) -> None:
        by_class = {
            InstructionClass.INT: config.int_alus,
            InstructionClass.MUL: config.mul_units,
            InstructionClass.LOAD: config.load_ports,
            InstructionClass.STORE: config.store_ports,
            InstructionClass.BRANCH: config.branch_units,
            InstructionClass.SYSTEM: 1,
        }
        self._capacity: List[int] = [0] * len(FU_CLASS_INDEX)
        for cls, capacity in by_class.items():
            self._capacity[FU_CLASS_INDEX[cls]] = capacity
        self._zeros: List[int] = [0] * len(self._capacity)
        self._used: List[int] = list(self._zeros)
        self._dirty = False

    def new_cycle(self) -> None:
        """Release every unit for the next cycle (fully pipelined units)."""
        if self._dirty:
            self._used[:] = self._zeros
            self._dirty = False

    def try_claim(self, inst_class: InstructionClass) -> bool:
        """Claim an issue slot of the given class if one remains."""
        fu_index = FU_CLASS_INDEX[inst_class]
        if self._used[fu_index] >= self._capacity[fu_index]:
            return False
        self._used[fu_index] += 1
        self._dirty = True
        return True


class IssueQueue:
    """A bounded window of dispatched, not-yet-issued micro-ops.

    Readiness is wakeup-driven: micro-ops enter the ready list when their
    pending producer count reaches zero (at dispatch, or when the last
    producer's writeback wakes them), so the scheduler never polls
    waiting entries.

    Both lists are mutated in place, never rebound, so the core may
    bind them for a stage: it appends to them at dispatch and removes
    an issued micro-op from both itself.
    """

    __slots__ = ("capacity", "_entries", "_ready")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: List[DynUop] = []
        self._ready: List[DynUop] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynUop]:
        return iter(self._entries)

    def add(self, uop: DynUop) -> None:
        if len(self._entries) >= self.capacity:
            raise SimulationError("IQ overflow — dispatch must check full")
        self._entries.append(uop)
        if uop.pending == 0:
            self._ready.append(uop)

    def wake_waiters(self, producer: DynUop) -> None:
        """``producer`` finished: each dispatched consumer waits on one
        producer fewer, and moves to the ready list at none."""
        ready = self._ready
        for uop in producer.waiters:
            if uop.state is DISPATCHED:
                uop.pending -= 1
                if not uop.pending:
                    ready.append(uop)
        producer.waiters.clear()

    def drop_squashed(self) -> None:
        self._entries[:] = [u for u in self._entries
                            if u.state is not SQUASHED]
        self._ready[:] = [u for u in self._ready
                          if u.state is not SQUASHED]

    def ready_uops(self) -> List[DynUop]:
        """Micro-ops whose operands are all available, oldest first.

        Always returns a snapshot, never the live ready list.
        """
        ready = self._ready
        if not ready:
            return []
        ready.sort(key=_BY_SEQ)
        return list(ready)
