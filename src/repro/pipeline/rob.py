"""Reorder buffer: in-order tracking of every in-flight micro-op."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.errors import SimulationError
from repro.pipeline.uop import COMMITTED, DONE, SQUASHED, DynUop


class ReorderBuffer:
    """A bounded FIFO of in-flight micro-ops in program order.

    The backing deque is never replaced, only mutated, so the core may
    bind it once per run for its per-cycle emptiness checks.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Deque[DynUop] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynUop]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, uop: DynUop) -> None:
        """Append a newly dispatched micro-op (program order)."""
        if self.full:
            raise SimulationError("ROB overflow — dispatch must check full")
        self._entries.append(uop)

    def head(self) -> Optional[DynUop]:
        """The oldest in-flight micro-op."""
        return self._entries[0] if self._entries else None

    def pop_head(self) -> DynUop:
        """Remove the oldest micro-op (at commit)."""
        if not self._entries:
            raise SimulationError("pop from an empty ROB")
        return self._entries.popleft()

    def squash_younger_than(self, seq: int) -> List[DynUop]:
        """Remove and return every micro-op with ``uop.seq > seq``.

        Used on branch misprediction and fault: everything younger than
        the redirecting micro-op is annulled.
        """
        # Sequence numbers are monotone in program order, so everything
        # younger than ``seq`` is a suffix: pop from the tail in place
        # (O(squashed), and the deque object identity is preserved).
        entries = self._entries
        squashed: List[DynUop] = []
        while entries and entries[-1].seq > seq:
            uop = entries.pop()
            uop.state = SQUASHED
            squashed.append(uop)
        squashed.reverse()
        return squashed

    def squash_all(self) -> List[DynUop]:
        """Squash the entire window (fault at the head)."""
        squashed = list(self._entries)
        for uop in squashed:
            uop.state = SQUASHED
        self._entries.clear()
        return squashed

    def unresolved_branches_older_than(self, seq: int) -> List[int]:
        """Sequence numbers of control-flow micro-ops older than ``seq``
        that have not yet produced their outcome.

        This is the WFB dependence set: a micro-op's shadow state may be
        promoted once this set empties (paper Section III).
        """
        deps = []
        for uop in self._entries:
            if uop.seq >= seq:
                break
            if uop.is_branch and uop.state not in (DONE, COMMITTED):
                deps.append(uop.seq)
        return deps
