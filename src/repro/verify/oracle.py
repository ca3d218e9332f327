"""The in-order reference interpreter — the architectural oracle.

A :class:`ReferenceOracle` executes a :class:`~repro.isa.program.Program`
one instruction at a time with no pipeline, no speculation and no
caches, producing the architectural result the out-of-order core must
also reach (paper Section III: speculation must not affect
correctness).  It deliberately mirrors the :class:`~repro.machine.Machine`
setup surface (``map_user_range`` / ``map_kernel_range`` /
``write_word`` / ``run``) so a differential harness can drive both from
one description.

Semantics are the ISA's architectural contract, shared with
:mod:`repro.pipeline.core`:

* ALU results and branch conditions come from
  :mod:`repro.isa.semantics`, the table every engine reads;
* loads/stores translate through the page table; an unmapped or
  privilege-violating access raises an architectural fault *at* that
  instruction (the in-order analogue of the core's commit-time fault),
  transfers to the fault handler when one is installed, and never
  retires the faulting instruction;
* ``clflush`` and ``fence`` have no architectural effect; ``halt``
  retires and stops; running past the code image stops with
  ``ran_off_code``; an instruction budget stops with ``budget``.

``rdtsc`` is the one architecturally timing-dependent instruction: its
destination register becomes *tainted* (value unknowable without a
cycle-accurate model) and taint propagates through ALU dataflow.  Using
a tainted value where the architectural outcome would depend on it — an
address, a branch operand, a store value, an indirect target — raises
:class:`~repro.errors.OracleError`; the differential harness simply
excludes tainted registers from state comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import OracleError, SimulationError
from repro.isa.instructions import INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, to_unsigned
from repro.isa.semantics import ALU, BRANCH
from repro.memory.dram import MainMemory
from repro.memory.paging import (MappedWords, PagePermissions, PageTable,
                                 PrivilegeLevel)

# Generous backstop so a buggy generator cannot spin the oracle forever;
# real fuzz programs retire a few hundred instructions.
DEFAULT_STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class OracleFault:
    """One architectural fault, cycle-free (the oracle has no clock)."""

    pc: int
    vaddr: int
    kind: str


@dataclass
class OracleResult:
    """Final architectural state of one oracle execution."""

    registers: Tuple[int, ...]
    instructions: int
    halted_reason: str
    fault_events: List[OracleFault] = field(default_factory=list)
    tainted: FrozenSet[int] = frozenset()

    def reg(self, index: int) -> int:
        return self.registers[index]

    def untainted_registers(self) -> Dict[int, int]:
        """Register values whose architectural content is determined."""
        return {index: value for index, value in enumerate(self.registers)
                if index not in self.tainted}


class ReferenceOracle(MappedWords):
    """A memory image plus an in-order interpreter over it.

    Like :class:`~repro.machine.Machine`, the oracle is persistent:
    memory written by one :meth:`run` (or by setup helpers) is visible
    to the next, so differential tests can replay multi-program
    sequences.  Unlike the machine there is no micro-architectural
    state at all.
    """

    def __init__(self, page_table: Optional[PageTable] = None) -> None:
        self.page_table = page_table or PageTable()
        self.memory = MainMemory()

    # ------------------------------------------------------------------
    # memory setup (Machine-compatible surface)
    # ------------------------------------------------------------------

    def map_user_range(self, start_vaddr: int, size: int) -> None:
        self.page_table.map_range(start_vaddr, size, PagePermissions())

    def map_kernel_range(self, start_vaddr: int, size: int) -> None:
        self.page_table.map_range(
            start_vaddr, size, PagePermissions(supervisor_only=True))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, program: Program,
            max_instructions: Optional[int] = None,
            privilege: PrivilegeLevel = PrivilegeLevel.USER,
            fault_handler_pc: Optional[int] = None,
            initial_registers: Optional[Dict[int, int]] = None,
            map_code: bool = True,
            step_limit: int = DEFAULT_STEP_LIMIT) -> OracleResult:
        """Interpret ``program`` to completion; same signature as
        :meth:`repro.machine.Machine.run`."""
        if map_code and program.code_bytes:
            self.page_table.map_range(program.code_base, program.code_bytes)
        regs = [0] * NUM_REGISTERS
        for reg, value in (initial_registers or {}).items():
            regs[reg] = to_unsigned(value)
        tainted: set = set()
        faults: List[OracleFault] = []
        pc = program.code_base
        retired = 0
        steps = 0

        while True:
            steps += 1
            if steps > step_limit:
                raise SimulationError(
                    f"oracle exceeded step limit {step_limit}")
            inst = program.fetch(pc)
            if inst is None:
                return self._result(regs, retired, "ran_off_code",
                                    faults, tainted)
            next_pc = pc + INSTRUCTION_BYTES
            op = inst.opcode

            if op is Opcode.ALU:
                rhs = (regs[inst.rs2] if inst.rs2 is not None
                       else to_unsigned(inst.imm))
                regs[inst.rd] = ALU[inst.alu_op].fn(regs[inst.rs1], rhs)
                self._propagate_taint(inst, tainted)
            elif op is Opcode.LOADIMM:
                regs[inst.rd] = to_unsigned(inst.imm)
                tainted.discard(inst.rd)
            elif op is Opcode.LOAD:
                fault = self._load(inst, regs, tainted, pc, privilege)
                if fault is not None:
                    faults.append(fault)
                    if fault_handler_pc is None:
                        return self._result(regs, retired, "fault",
                                            faults, tainted)
                    pc = fault_handler_pc
                    continue
            elif op is Opcode.STORE:
                fault = self._store(inst, regs, tainted, pc, privilege)
                if fault is not None:
                    faults.append(fault)
                    if fault_handler_pc is None:
                        return self._result(regs, retired, "fault",
                                            faults, tainted)
                    pc = fault_handler_pc
                    continue
            elif op is Opcode.BRANCH:
                if inst.rs1 in tainted or inst.rs2 in tainted:
                    raise OracleError(
                        f"branch on timing-tainted register at {pc:#x}")
                if BRANCH[inst.cond].fn(regs[inst.rs1], regs[inst.rs2]):
                    next_pc = program.pc_of(inst.target)
            elif op is Opcode.JMP:
                next_pc = program.pc_of(inst.target)
            elif op is Opcode.JMPI:
                if inst.rs1 in tainted:
                    raise OracleError(
                        f"jmpi through timing-tainted register at {pc:#x}")
                next_pc = regs[inst.rs1]
            elif op is Opcode.CALL:
                regs[inst.rd] = next_pc  # link: fall-through address
                tainted.discard(inst.rd)
                next_pc = program.pc_of(inst.target)
            elif op is Opcode.RET:
                if inst.rs1 in tainted:
                    raise OracleError(
                        f"ret through timing-tainted register at {pc:#x}")
                next_pc = regs[inst.rs1]
            elif op is Opcode.RDTSC:
                # Timing-dependent: canonical zero, tracked as tainted.
                regs[inst.rd] = 0
                tainted.add(inst.rd)
            elif op is Opcode.CLFLUSH:
                if inst.rs1 in tainted:
                    raise OracleError(
                        f"clflush of timing-tainted address at {pc:#x}")
            # FENCE / NOP / HALT: no architectural effect here.

            retired += 1
            if op is Opcode.HALT:
                return self._result(regs, retired, "halt", faults, tainted)
            if max_instructions is not None and retired >= max_instructions:
                return self._result(regs, retired, "budget", faults, tainted)
            pc = next_pc

    # -- load checking: mirrors the commit-time rule of the core, where
    # the *read* permission is evaluated against the running privilege.

    def _load(self, inst: Instruction, regs: List[int], tainted: set,
              pc: int, privilege: PrivilegeLevel) -> Optional[OracleFault]:
        if inst.rs1 in tainted:
            raise OracleError(
                f"load through timing-tainted base register at {pc:#x}")
        vaddr = to_unsigned(regs[inst.rs1] + inst.imm)
        translation = self.page_table.lookup(vaddr)
        if translation is None:
            return OracleFault(pc=pc, vaddr=vaddr, kind="unmapped")
        if not translation.permissions.allows(
                write=False, execute=False, privilege=privilege):
            return OracleFault(pc=pc, vaddr=vaddr, kind="permission")
        regs[inst.rd] = self.memory.read_word(translation.physical(vaddr))
        tainted.discard(inst.rd)
        return None

    def _store(self, inst: Instruction, regs: List[int], tainted: set,
               pc: int, privilege: PrivilegeLevel) -> Optional[OracleFault]:
        if inst.rs1 in tainted:
            raise OracleError(
                f"store through timing-tainted base register at {pc:#x}")
        if inst.rs2 in tainted:
            raise OracleError(
                f"store of timing-tainted value at {pc:#x}")
        vaddr = to_unsigned(regs[inst.rs1] + inst.imm)
        translation = self.page_table.lookup(vaddr)
        if translation is None:
            return OracleFault(pc=pc, vaddr=vaddr, kind="unmapped")
        if not translation.permissions.allows(
                write=True, execute=False, privilege=privilege):
            return OracleFault(pc=pc, vaddr=vaddr, kind="permission")
        self.memory.write_word(translation.physical(vaddr),
                               regs[inst.rs2])
        return None

    @staticmethod
    def _propagate_taint(inst: Instruction, tainted: set) -> None:
        if inst.rs1 in tainted or (inst.rs2 is not None
                                   and inst.rs2 in tainted):
            tainted.add(inst.rd)
        else:
            tainted.discard(inst.rd)

    @staticmethod
    def _result(regs: List[int], retired: int, reason: str,
                faults: List[OracleFault],
                tainted: set) -> OracleResult:
        return OracleResult(
            registers=tuple(regs),
            instructions=retired,
            halted_reason=reason,
            fault_events=list(faults),
            tainted=frozenset(tainted),
        )
