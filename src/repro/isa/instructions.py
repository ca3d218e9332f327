"""Instruction encodings.

Each static instruction occupies ``INSTRUCTION_BYTES`` of the virtual
address space so that instruction-cache behaviour (line sharing, spatial
locality) is meaningful: with 16-byte instructions and 64-byte lines, four
instructions share one i-cache line, mirroring typical x86 densities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import AssemblyError

INSTRUCTION_BYTES = 16


class Opcode(enum.Enum):
    """Top-level operation selector."""

    ALU = "alu"            # rd <- rs1 OP (rs2 | imm)
    LOADIMM = "loadimm"    # rd <- imm
    LOAD = "load"          # rd <- MEM[rs1 + imm]
    STORE = "store"        # MEM[rs1 + imm] <- rs2
    BRANCH = "branch"      # conditional, relative to labels
    JMP = "jmp"            # unconditional direct
    JMPI = "jmpi"          # unconditional indirect: target = rs1
    CALL = "call"          # rd <- return address; jump to target
    RET = "ret"            # indirect return: target = rs1 (RSB-predicted)
    CLFLUSH = "clflush"    # flush line at rs1 + imm from all cache levels
    RDTSC = "rdtsc"        # rd <- current cycle (serialising read)
    FENCE = "fence"        # speculation barrier (lfence-like)
    NOP = "nop"
    HALT = "halt"


class AluOp(enum.Enum):
    """ALU operations."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"


class BranchCond(enum.Enum):
    """Branch conditions comparing rs1 against rs2 (signed)."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    GE = "ge"


class InstructionClass(enum.Enum):
    """Functional-unit class used by the issue stage."""

    INT = "int"
    MUL = "mul"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    SYSTEM = "system"


_OPCODE_CLASS = {
    Opcode.ALU: InstructionClass.INT,
    Opcode.LOADIMM: InstructionClass.INT,
    Opcode.LOAD: InstructionClass.LOAD,
    Opcode.STORE: InstructionClass.STORE,
    Opcode.BRANCH: InstructionClass.BRANCH,
    Opcode.JMP: InstructionClass.BRANCH,
    Opcode.JMPI: InstructionClass.BRANCH,
    Opcode.CALL: InstructionClass.BRANCH,
    Opcode.RET: InstructionClass.BRANCH,
    Opcode.CLFLUSH: InstructionClass.SYSTEM,
    Opcode.RDTSC: InstructionClass.SYSTEM,
    Opcode.FENCE: InstructionClass.SYSTEM,
    Opcode.NOP: InstructionClass.INT,
    Opcode.HALT: InstructionClass.SYSTEM,
}

# Dense functional-unit indices: the issue stage claims slots from plain
# lists instead of enum-keyed dicts (enum hashing dominated the per-cycle
# profile).  Declaration order of InstructionClass is the index order.
FU_CLASS_ORDER = tuple(InstructionClass)
FU_CLASS_INDEX = {cls: index for index, cls in enumerate(FU_CLASS_ORDER)}

# Operands an opcode cannot do without, as positions in
# (rd, rs1, rs2, alu_op, cond), with the error naming them.
_RD, _RS1, _RS2, _ALU_OP, _COND = range(5)
_REQUIRED = {
    Opcode.ALU: ((_RD, _RS1, _ALU_OP), "ALU needs rd, rs1 and alu_op"),
    Opcode.LOADIMM: ((_RD,), "LOADIMM needs rd"),
    Opcode.LOAD: ((_RD, _RS1), "LOAD needs rd and rs1"),
    Opcode.STORE: ((_RS1, _RS2), "STORE needs rs1 (base) and rs2 (data)"),
    Opcode.BRANCH: ((_RS1, _RS2, _COND), "BRANCH needs rs1, rs2 and cond"),
    Opcode.JMPI: ((_RS1,), "JMPI needs rs1"),
    Opcode.CALL: ((_RD,), "CALL needs rd (link register)"),
    Opcode.RET: ((_RS1,), "RET needs rs1 (return-address register)"),
    Opcode.CLFLUSH: ((_RS1,), "CLFLUSH needs rs1"),
    Opcode.RDTSC: ((_RD,), "RDTSC needs rd"),
}


def _decode_row(opcode: Opcode, inst_class: InstructionClass) -> dict:
    """An instance-dict template: the spec fields at their defaults plus
    every decode product that depends on the opcode alone (ALU and
    BRANCH rows are specialised per sub-operation below).

    The row holds 21 entries, the most a 32-slot dict table takes; a
    22nd would double every instruction's dict (464 to 832 bytes on
    CPython 3.11), so a new product must replace one no one reads."""
    return {
        "opcode": opcode, "rd": None, "rs1": None, "rs2": None, "imm": 0,
        "target": None, "alu_op": None, "cond": None, "label": None,
        "inst_class": inst_class,
        "fu_index": FU_CLASS_INDEX[inst_class],
        "is_control_flow": inst_class is InstructionClass.BRANCH,
        "is_conditional": opcode is Opcode.BRANCH,
        "is_indirect": opcode is Opcode.JMPI,
        "is_return": opcode is Opcode.RET,
        "is_load": opcode is Opcode.LOAD,
        "is_store": opcode is Opcode.STORE,
        "is_serialising": opcode in (Opcode.RDTSC, Opcode.FENCE),
        "op_fn": None,
        "writes_register": False,
        "sources": (),
    }


# Decode rows keyed by the opcode's value string: a str hash is cached,
# while Enum.__hash__ is a Python-level call on every lookup.
_DECODE = {op._value_: (_decode_row(op, cls),) + _REQUIRED.get(op, ((), ""))
           for op, cls in _OPCODE_CLASS.items()}
_ALU, _BRANCH = Opcode.ALU, Opcode.BRANCH
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Instruction:
    """One static instruction.

    Fields are used selectively per opcode:

    * ``rd`` — destination register (ALU, LOADIMM, LOAD, RDTSC).
    * ``rs1`` — first source (ALU, LOAD/STORE/CLFLUSH base, BRANCH lhs,
      JMPI target register).
    * ``rs2`` — second source (ALU register form, STORE data, BRANCH rhs).
    * ``imm`` — immediate (ALU immediate form, LOADIMM value,
      LOAD/STORE/CLFLUSH displacement).
    * ``target`` — static branch/jump target *instruction index*.
    * ``alu_op`` / ``cond`` — sub-operation selectors.
    * ``label`` — optional symbolic name of this instruction's location.

    Decoding happens once, here: every attribute the pipeline reads per
    cycle (``inst_class``, ``fu_index``, the ``is_*`` flags, ``op_fn``,
    ``writes_register``, ``sources``) is materialised at construction.
    ``op_fn`` is the :mod:`repro.isa.semantics` function of an ALU
    operation or branch condition (None for every other opcode).  They
    are not spec fields, so eq/hash/repr/pickle ignore them.
    """

    opcode: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None
    alu_op: Optional[AluOp] = None
    cond: Optional[BranchCond] = None
    label: Optional[str] = None

    def __init__(self, opcode: Opcode, rd: Optional[int] = None,
                 rs1: Optional[int] = None, rs2: Optional[int] = None,
                 imm: int = 0, target: Optional[int] = None,
                 alu_op: Optional[AluOp] = None,
                 cond: Optional[BranchCond] = None,
                 label: Optional[str] = None) -> None:
        # The instance dict is a copy of the opcode's decode row with the
        # operands filled in, installed in one write; the frozen
        # dataclass's per-field object.__setattr__ calls cost more than
        # the rest of construction.
        row, required, error = _DECODE[opcode._value_]
        if required:
            operands = (rd, rs1, rs2, alu_op, cond)
            for index in required:
                if operands[index] is None:
                    raise AssemblyError(error)
        if opcode is _ALU:
            row = _ALU_ROWS[alu_op._value_]
        elif opcode is _BRANCH:
            row = _BRANCH_ROWS[cond._value_]
        state = row.copy()
        if rd is not None:
            state["rd"] = rd
            state["writes_register"] = True
        if rs1 is not None:
            state["rs1"] = rs1
            state["sources"] = (rs1,) if rs2 is None else (rs1, rs2)
        elif rs2 is not None:
            state["sources"] = (rs2,)
        state["rs2"] = rs2
        state["imm"] = imm
        state["target"] = target
        state["alu_op"] = alu_op
        state["cond"] = cond
        state["label"] = label
        _set(self, "__dict__", state)

    def __reduce__(self):
        # Decode products are rebuilt, never pickled (``op_fn`` is a
        # compiled lambda, which pickle cannot name).
        return (Instruction, (self.opcode, self.rd, self.rs1, self.rs2,
                              self.imm, self.target, self.alu_op, self.cond,
                              self.label))

    def source_registers(self) -> tuple:
        """Architectural registers read by this instruction."""
        return self.sources

    def __str__(self) -> str:
        op = self.opcode.value
        if self.opcode == Opcode.ALU:
            rhs = f"r{self.rs2}" if self.rs2 is not None else f"#{self.imm}"
            return f"{self.alu_op.value} r{self.rd}, r{self.rs1}, {rhs}"
        if self.opcode == Opcode.LOADIMM:
            return f"li r{self.rd}, #{self.imm}"
        if self.opcode == Opcode.LOAD:
            return f"ld r{self.rd}, [r{self.rs1}+{self.imm}]"
        if self.opcode == Opcode.STORE:
            return f"st [r{self.rs1}+{self.imm}], r{self.rs2}"
        if self.opcode == Opcode.BRANCH:
            return (f"b{self.cond.value} r{self.rs1}, r{self.rs2}, "
                    f"@{self.target}")
        if self.opcode == Opcode.JMP:
            return f"jmp @{self.target}"
        if self.opcode == Opcode.JMPI:
            return f"jmpi r{self.rs1}"
        if self.opcode == Opcode.CALL:
            return f"call r{self.rd}, @{self.target}"
        if self.opcode == Opcode.RET:
            return f"ret r{self.rs1}"
        if self.opcode == Opcode.CLFLUSH:
            return f"clflush [r{self.rs1}+{self.imm}]"
        if self.opcode == Opcode.RDTSC:
            return f"rdtsc r{self.rd}"
        return op


# The semantics module imports AluOp and BranchCond from this one, so it
# loads here, after them (the package imports this module first).
from repro.isa.semantics import ALU, BRANCH  # noqa: E402


def _specialised(row: dict, inst_class: InstructionClass, fn) -> dict:
    return dict(row, inst_class=inst_class,
                fu_index=FU_CLASS_INDEX[inst_class], op_fn=fn)


# ALU rows per operation (MUL issues to the multiplier) and BRANCH rows
# per condition, each with its semantics function resolved once.
_ALU_ROWS = {
    op._value_: _specialised(
        _DECODE[_ALU._value_][0],
        InstructionClass.MUL if op is AluOp.MUL else InstructionClass.INT,
        semantics.fn)
    for op, semantics in ALU.items()}
_BRANCH_ROWS = {
    cond._value_: _specialised(_DECODE[_BRANCH._value_][0],
                               InstructionClass.BRANCH, semantics.fn)
    for cond, semantics in BRANCH.items()}
