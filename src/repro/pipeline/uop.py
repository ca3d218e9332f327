"""Dynamic micro-op state tracked through the pipeline."""

from __future__ import annotations

import enum
from typing import AbstractSet, Dict, Optional

from repro.isa.instructions import Instruction

# The branch-dependence set of every micro-op outside WFB, which alone
# tracks one (the core gives each WFB micro-op its own set at dispatch).
_NO_BRANCH_DEPS: AbstractSet[int] = frozenset()


class UopState(enum.Enum):
    """Lifecycle of a dynamic micro-op."""

    FETCHED = "fetched"        # in the front-end buffer
    DISPATCHED = "dispatched"  # in ROB + IQ, waiting for operands
    ISSUED = "issued"          # executing on a functional unit
    DONE = "done"              # result produced, waiting to commit
    COMMITTED = "committed"
    SQUASHED = "squashed"


# The states under plain module names, for the pipeline's per-micro-op
# tests: on Python 3.11 reading ``UopState.DONE`` is a metaclass lookup
# several times the cost of reading a module global.
FETCHED = UopState.FETCHED
DISPATCHED = UopState.DISPATCHED
ISSUED = UopState.ISSUED
DONE = UopState.DONE
COMMITTED = UopState.COMMITTED
SQUASHED = UopState.SQUASHED


class DynUop:
    """One dynamic instance of an instruction in flight.

    The core manipulates these objects directly; they are not part of the
    public API but their fields are documented because the SafeSpec engine
    and the analysis code read them.
    """

    __slots__ = (
        "seq", "inst", "pc", "state",
        "opcode", "is_load", "is_store", "is_branch", "is_serialising",
        "fu_index",
        "fetch_cycle", "done_cycle",
        "pred_taken", "pred_target", "actual_taken", "actual_target",
        "operands", "producers", "result", "pending", "waiters",
        "vaddr", "paddr", "store_value", "fault",
        "hit_level", "ifetch_level", "ifetch_line",
        "dwalked", "iwalked",
        "branch_deps", "promoted",
    )

    def __init__(self, seq: int, inst: Instruction, pc: int,
                 fetch_cycle: int) -> None:
        self.seq = seq
        self.inst = inst
        self.pc = pc
        self.state = FETCHED

        # Decoded classification, copied from the (assembly-time decoded)
        # instruction so the pipeline's per-cycle checks are plain slot
        # reads instead of chained attribute walks.
        self.opcode = inst.opcode
        self.is_load = inst.is_load
        self.is_store = inst.is_store
        self.is_branch = inst.is_control_flow
        self.is_serialising = inst.is_serialising
        self.fu_index = inst.fu_index

        self.fetch_cycle = fetch_cycle
        self.done_cycle = -1

        # control flow
        self.pred_taken = False
        self.pred_target: Optional[int] = None
        self.actual_taken = False
        self.actual_target: Optional[int] = None

        # data flow: register -> resolved value, or register -> producer
        self.operands: Dict[int, int] = {}
        self.producers: Dict[int, "DynUop"] = {}
        self.result: Optional[int] = None
        self.pending = 0                  # producers still outstanding
        self.waiters: list = []           # consumers to wake when done

        # memory
        self.vaddr: Optional[int] = None
        self.paddr: Optional[int] = None
        self.store_value: Optional[int] = None
        self.fault: Optional[str] = None
        self.hit_level = ""
        self.ifetch_level = ""
        self.ifetch_line = -1
        self.dwalked = False
        self.iwalked = False

        # speculation bookkeeping
        self.branch_deps: AbstractSet[int] = _NO_BRANCH_DEPS
        self.promoted = False            # WFB: shadow state already moved

    # -- operands ------------------------------------------------------------

    def source_value(self, reg: int) -> int:
        """Resolved value of a source register (call once ready).

        Values either arrived at dispatch (architectural registers and
        already-finished producers) or are pulled from the producer's
        result here.
        """
        if reg in self.operands:
            return self.operands[reg]
        return self.producers[reg].result

    def __repr__(self) -> str:
        return (f"DynUop(#{self.seq} pc={self.pc:#x} {self.inst} "
                f"{self.state.value})")
