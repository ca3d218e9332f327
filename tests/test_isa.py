"""Unit tests for the ISA: instructions, programs, assembler, builder."""

import dataclasses
import pickle

import pytest

from repro import Machine
from repro.errors import AssemblyError
from repro.isa.assembler import ProgramBuilder, assemble
from repro.isa.instructions import (AluOp, BranchCond, INSTRUCTION_BYTES,
                                    Instruction, InstructionClass, Opcode)
from repro.isa.program import Program
from repro.isa.registers import register_index, to_unsigned
from repro.isa.semantics import ALU, BRANCH
from repro.verify import ReferenceOracle


class TestRegisters:
    def test_register_index(self):
        assert register_index("r0") == 0
        assert register_index("r15") == 15

    def test_bad_names_rejected(self):
        for name in ("x1", "r16", "r-1", "rX"):
            with pytest.raises(AssemblyError):
                register_index(name)

    def test_unsigned_truncation(self):
        assert to_unsigned(-1) == 2**64 - 1
        assert to_unsigned(2**64 + 3) == 3


class TestInstructionValidation:
    def test_alu_requires_fields(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.ALU, rd=1)

    def test_load_requires_base(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.LOAD, rd=1)

    def test_store_requires_data(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.STORE, rs1=1)

    def test_branch_requires_condition(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.BRANCH, rs1=1, rs2=2)

    def test_mul_uses_mul_unit(self):
        inst = Instruction(Opcode.ALU, rd=1, rs1=2, alu_op=AluOp.MUL)
        assert inst.inst_class is InstructionClass.MUL

    def test_add_uses_int_unit(self):
        inst = Instruction(Opcode.ALU, rd=1, rs1=2, alu_op=AluOp.ADD)
        assert inst.inst_class is InstructionClass.INT

    def test_control_flow_classification(self):
        jmpi = Instruction(Opcode.JMPI, rs1=1)
        assert jmpi.is_control_flow and jmpi.is_indirect
        branch = Instruction(Opcode.BRANCH, rs1=1, rs2=2,
                             cond=BranchCond.EQ, target=0)
        assert branch.is_conditional

    def test_source_registers(self):
        inst = Instruction(Opcode.STORE, rs1=3, rs2=7)
        assert inst.source_registers() == (3, 7)


# The decode table: for each opcode, the operands of a minimal valid
# instruction and what it decodes to.  Flags: c = control flow,
# b = conditional branch, i = indirect jump, r = return,
# l = load, s = store, z = serialising.
_INT, _MUL_CLS, _LD, _ST, _BR, _SYS = (
    InstructionClass.INT, InstructionClass.MUL, InstructionClass.LOAD,
    InstructionClass.STORE, InstructionClass.BRANCH, InstructionClass.SYSTEM)
DECODE_TABLE = {
    # opcode: (operands, class, fu_index, flags, writes_register, sources)
    Opcode.ALU: (dict(rd=1, rs1=2, rs2=3, alu_op=AluOp.ADD),
                 _INT, 0, "", True, (2, 3)),
    Opcode.LOADIMM: (dict(rd=1, imm=5), _INT, 0, "", True, ()),
    Opcode.LOAD: (dict(rd=1, rs1=2, imm=8), _LD, 2, "l", True, (2,)),
    Opcode.STORE: (dict(rs1=2, rs2=3), _ST, 3, "s", False, (2, 3)),
    Opcode.BRANCH: (dict(rs1=2, rs2=3, cond=BranchCond.LT, target=0),
                    _BR, 4, "cb", False, (2, 3)),
    Opcode.JMP: (dict(target=4), _BR, 4, "c", False, ()),
    Opcode.JMPI: (dict(rs1=2), _BR, 4, "ci", False, (2,)),
    Opcode.CALL: (dict(rd=1, target=4), _BR, 4, "c", True, ()),
    Opcode.RET: (dict(rs1=2), _BR, 4, "cr", False, (2,)),
    Opcode.CLFLUSH: (dict(rs1=2, imm=64), _SYS, 5, "", False, (2,)),
    Opcode.RDTSC: (dict(rd=1), _SYS, 5, "z", True, ()),
    Opcode.FENCE: (dict(), _SYS, 5, "z", False, ()),
    Opcode.NOP: (dict(), _INT, 0, "", False, ()),
    Opcode.HALT: (dict(), _SYS, 5, "", False, ()),
}

# Every opcode with required operands, and the error naming them.
REQUIRED_OPERANDS = {
    Opcode.ALU: (("rd", "rs1", "alu_op"), "ALU needs rd, rs1 and alu_op"),
    Opcode.LOADIMM: (("rd",), "LOADIMM needs rd"),
    Opcode.LOAD: (("rd", "rs1"), "LOAD needs rd and rs1"),
    Opcode.STORE: (("rs1", "rs2"), "STORE needs rs1 (base) and rs2 (data)"),
    Opcode.BRANCH: (("rs1", "rs2", "cond"), "BRANCH needs rs1, rs2 and cond"),
    Opcode.JMPI: (("rs1",), "JMPI needs rs1"),
    Opcode.CALL: (("rd",), "CALL needs rd (link register)"),
    Opcode.RET: (("rs1",), "RET needs rs1 (return-address register)"),
    Opcode.CLFLUSH: (("rs1",), "CLFLUSH needs rs1"),
    Opcode.RDTSC: (("rd",), "RDTSC needs rd"),
}

SPEC_FIELDS = ("opcode", "rd", "rs1", "rs2", "imm", "target", "alu_op",
               "cond", "label")


def _decode_cases():
    for opcode in Opcode:
        yield pytest.param(opcode, None, id=opcode.value)
    for alu_op in AluOp:
        yield pytest.param(Opcode.ALU, alu_op, id=f"alu-{alu_op.value}")
    for cond in BranchCond:
        yield pytest.param(Opcode.BRANCH, cond, id=f"branch-{cond.value}")


def _example(opcode, sub):
    """A minimal instruction of ``opcode``, with ``sub`` (an AluOp or a
    BranchCond) as its sub-operation when given."""
    operands = dict(DECODE_TABLE[opcode][0])
    if isinstance(sub, AluOp):
        operands["alu_op"] = sub
    elif sub is not None:
        operands["cond"] = sub
    return Instruction(opcode, **operands), operands


def _decoded(inst):
    return (inst.inst_class, inst.fu_index, inst.is_control_flow,
            inst.is_conditional, inst.is_indirect, inst.is_return, inst.is_load, inst.is_store,
            inst.is_serialising, inst.op_fn, inst.writes_register,
            inst.sources)


def _semantics_fn(inst):
    """The semantics function an instruction must have decoded to."""
    if inst.opcode is Opcode.ALU:
        return ALU[inst.alu_op].fn
    if inst.opcode is Opcode.BRANCH:
        return BRANCH[inst.cond].fn
    return None


@pytest.mark.parametrize("opcode,sub", list(_decode_cases()))
class TestInstructionDecode:
    """The decode products and dataclass contract of every opcode (and
    of ALU under every operation, BRANCH under every condition)."""

    def test_decode_matches_table(self, opcode, sub):
        inst, _ = _example(opcode, sub)
        _, cls, fu_index, flags, writes, sources = DECODE_TABLE[opcode]
        if sub is AluOp.MUL:
            cls, fu_index = _MUL_CLS, 1
        assert _decoded(inst) == (
            cls, fu_index, "c" in flags, "b" in flags, "i" in flags,
            "r" in flags, "l" in flags, "s" in flags,
            "z" in flags, _semantics_fn(inst), writes, sources)
        assert (inst.op_fn is None) == (
            opcode not in (Opcode.ALU, Opcode.BRANCH))
        assert inst.source_registers() == sources

    def test_eq_hash_repr_cover_only_spec_fields(self, opcode, sub):
        inst, operands = _example(opcode, sub)
        assert tuple(f.name for f in dataclasses.fields(Instruction)) == \
            SPEC_FIELDS
        spec = tuple(getattr(inst, name) for name in SPEC_FIELDS)
        twin = Instruction(opcode, **operands)
        assert twin == inst and twin is not inst
        assert hash(inst) == hash(spec)
        assert repr(inst) == "Instruction(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(SPEC_FIELDS, spec)) \
            + ")"
        assert inst != dataclasses.replace(inst, label="elsewhere")
        assert inst != dataclasses.replace(inst, imm=inst.imm + 1)

    def test_instance_dict_stays_in_a_32_slot_table(self, opcode, sub):
        # A 22nd entry doubles the size of every instruction's dict.
        inst, _ = _example(opcode, sub)
        assert len(vars(inst)) <= 21

    def test_frozen(self, opcode, sub):
        inst, _ = _example(opcode, sub)
        for name in ("opcode", "rd", "imm", "label", "inst_class",
                     "fu_index", "is_load", "op_fn", "sources"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inst, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(inst, name)

    def test_pickle_and_replace_round_trip(self, opcode, sub):
        inst, _ = _example(opcode, sub)
        # Pickle carries the nine spec fields only; decoding rebuilds
        # the rest.
        assert inst.__reduce__() == (
            Instruction, tuple(getattr(inst, name) for name in SPEC_FIELDS))
        for copy in (pickle.loads(pickle.dumps(inst)),
                     dataclasses.replace(inst)):
            assert copy == inst and copy is not inst
            assert _decoded(copy) == _decoded(inst)
        labelled = dataclasses.replace(inst, label="here")
        assert labelled.label == "here"
        assert _decoded(labelled) == _decoded(inst)

    def test_missing_operand_errors(self, opcode, sub):
        _, operands = _example(opcode, sub)
        required, message = REQUIRED_OPERANDS.get(opcode, ((), ""))
        for name in required:
            partial = {k: v for k, v in operands.items() if k != name}
            with pytest.raises(AssemblyError) as err:
                Instruction(opcode, **partial)
            assert str(err.value) == message


def test_replace_reselects_the_mul_row():
    add = Instruction(Opcode.ALU, rd=1, rs1=2, alu_op=AluOp.ADD)
    mul = dataclasses.replace(add, alu_op=AluOp.MUL)
    assert mul.inst_class is InstructionClass.MUL and mul.fu_index == 1
    assert mul.op_fn is ALU[AluOp.MUL].fn
    sub = dataclasses.replace(mul, alu_op=AluOp.SUB)
    assert sub.fu_index == 0 and sub.op_fn is ALU[AluOp.SUB].fn


def test_replace_reselects_the_branch_semantics():
    beq = Instruction(Opcode.BRANCH, rs1=1, rs2=2, cond=BranchCond.EQ)
    bge = dataclasses.replace(beq, cond=BranchCond.GE)
    assert bge.op_fn is BRANCH[BranchCond.GE].fn
    assert beq.op_fn is BRANCH[BranchCond.EQ].fn


def test_mul_selector_outside_alu_keeps_the_opcode_row():
    # Only an ALU instruction decodes to the MUL unit.
    load = Instruction(Opcode.LOAD, rd=1, rs1=2, alu_op=AluOp.MUL)
    assert load.inst_class is InstructionClass.LOAD
    assert load.op_fn is None


def test_sources_from_either_register_field():
    assert Instruction(Opcode.NOP, rs2=4).sources == (4,)
    assert Instruction(Opcode.NOP, rd=0).writes_register


class TestProgram:
    def test_pc_index_roundtrip(self):
        prog = Program([Instruction(Opcode.NOP)] * 5, code_base=0x1000)
        for i in range(5):
            assert prog.index_of(prog.pc_of(i)) == i

    def test_fetch_outside_returns_none(self):
        prog = Program([Instruction(Opcode.NOP)], code_base=0x1000)
        assert prog.fetch(0x1000 - INSTRUCTION_BYTES) is None
        assert prog.fetch(0x1000 + INSTRUCTION_BYTES) is None

    def test_fetch_misaligned_returns_none(self):
        prog = Program([Instruction(Opcode.NOP)], code_base=0x1000)
        assert prog.fetch(0x1004) is None

    def test_unaligned_base_rejected(self):
        with pytest.raises(AssemblyError):
            Program([], code_base=0x1001)

    def test_label_outside_rejected(self):
        with pytest.raises(AssemblyError):
            Program([Instruction(Opcode.NOP)], labels={"x": 9})

    def test_disassemble_mentions_labels(self):
        b = ProgramBuilder()
        b.label("start")
        b.halt()
        listing = b.build().disassemble()
        assert "start:" in listing
        assert "halt" in listing


class TestBuilder:
    def test_forward_label(self):
        b = ProgramBuilder()
        b.branch("eq", "r1", "r0", "end")
        b.nop()
        b.label("end")
        b.halt()
        prog = b.build()
        assert prog.instructions[0].target == 2

    def test_undefined_label_rejected(self):
        b = ProgramBuilder()
        b.jmp("nowhere")
        with pytest.raises(AssemblyError):
            b.build()

    def test_duplicate_label_rejected(self):
        b = ProgramBuilder()
        b.label("x")
        with pytest.raises(AssemblyError):
            b.label("x")

    def test_here_tracks_position(self):
        b = ProgramBuilder()
        assert b.here() == 0
        b.nop(3)
        assert b.here() == 3

    def test_nop_padding_shares_one_instruction(self):
        b = ProgramBuilder()
        b.nop(4096)
        b.nop()
        prog = b.build()
        assert len(prog) == 4097
        assert len({id(inst) for inst in prog}) == 1
        assert prog.instructions[0] == Instruction(Opcode.NOP)
        assert prog.instructions[0].inst_class is InstructionClass.INT

    def test_la_loads_forward_label_pc(self):
        b = ProgramBuilder(code_base=0x4000)
        b.la("r9", "table")
        b.nop(2)
        b.label("table")
        b.halt()
        prog = b.build()
        assert prog.instructions[0] == Instruction(
            Opcode.LOADIMM, rd=9, imm=0x4000 + 3 * INSTRUCTION_BYTES)
        assert prog.instructions[0].imm == prog.label_pc("table")
        assert prog.instructions[0].target is None

    def test_la_undefined_label_rejected(self):
        b = ProgramBuilder()
        b.la("r1", "nowhere")
        with pytest.raises(AssemblyError):
            b.build()


class TestAssembler:
    def test_full_program(self):
        prog = assemble("""
        ; a tiny loop
        li   r1, #3
        loop:
        sub  r1, r1, #1
        bne  r1, r0, loop
        halt
        """)
        assert len(prog) == 4
        assert prog.instructions[0].opcode is Opcode.LOADIMM
        assert prog.instructions[2].target == 1

    def test_memory_operands(self):
        prog = assemble("""
        ld r2, [r1+8]
        st [r3-4], r2
        clflush [r1]
        halt
        """)
        assert prog.instructions[0].imm == 8
        assert prog.instructions[1].imm == -4
        assert prog.instructions[2].imm == 0

    def test_register_alu_form(self):
        prog = assemble("add r1, r2, r3\nhalt")
        assert prog.instructions[0].rs2 == 3

    def test_immediate_alu_form(self):
        prog = assemble("xor r1, r2, #0xff\nhalt")
        assert prog.instructions[0].imm == 0xFF

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("frobnicate r1")

    def test_bad_operand_count_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("add r1, r2")

    def test_bad_memory_operand_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("ld r1, r2")

    def test_jmpi_and_rdtsc(self):
        prog = assemble("rdtsc r3\njmpi r3\nhalt")
        assert prog.instructions[0].opcode is Opcode.RDTSC
        assert prog.instructions[1].opcode is Opcode.JMPI

    def test_assembles_what_disassembler_prints(self):
        source = "li r1, #5\nld r2, [r1+0]\nbeq r2, r0, out\nout:\nhalt"
        prog = assemble(source)
        assert len(prog) == 4


# -- semantics -------------------------------------------------------------

def _run_oracle(program):
    return ReferenceOracle().run(program)


def _on_backend(backend, predictor="bimodal"):
    def run(program):
        return Machine(backend=backend, predictor=predictor).run(program)
    return run


# Every engine must compute these; "fast-gshare" reaches the fast
# backend's generic branch closure (the bimodal one is specialised).
ENGINES = {
    "oracle": _run_oracle,
    "cycle": _on_backend("cycle"),
    "fast": _on_backend("fast"),
    "fast-gshare": _on_backend("fast", "gshare"),
}

MAX = 0xFFFF_FFFF_FFFF_FFFF
SIGN = 0x8000_0000_0000_0000


@pytest.mark.parametrize("engine", list(ENGINES))
class TestSemantics:
    """What each ALU operation computes and when each branch is taken,
    as literal values: the engines share one definition of both
    (``repro.isa.semantics``), so these values are what pins it."""

    @pytest.mark.parametrize("op,lhs,rhs,expected", [
        ("add", 5, 3, 8),
        ("add", MAX, 1, 0),
        ("sub", 0, 1, MAX),
        ("sub", 5, 3, 2),
        ("mul", 1 << 32, 1 << 32, 0),
        ("mul", MAX, 3, 0xFFFF_FFFF_FFFF_FFFD),
        ("and", 0xF0F0, 0xFF00, 0xF000),
        ("or", 0xF0F0, 0x0F0F, 0xFFFF),
        ("xor", MAX, SIGN, 0x7FFF_FFFF_FFFF_FFFF),
        ("shl", 1, 65, 2),
        ("shl", SIGN, 1, 0),
        ("shr", SIGN, 63, 1),
        ("shr", MAX, 64, MAX),
    ])
    def test_register_form(self, engine, op, lhs, rhs, expected):
        b = ProgramBuilder()
        b.li("r1", lhs)
        b.li("r2", rhs)
        b.alu(op, "r3", "r1", "r2")
        b.halt()
        assert ENGINES[engine](b.build()).registers[3] == expected

    @pytest.mark.parametrize("op,lhs,imm,expected", [
        ("add", 5, -1, 4),
        ("sub", 0, 1, MAX),
        ("mul", 1 << 32, 1 << 32, 0),
        ("mul", 7, -1, 0xFFFF_FFFF_FFFF_FFF9),
        ("and", MAX, -8, 0xFFFF_FFFF_FFFF_FFF8),
        ("or", 0, -1, MAX),
        ("xor", 0xFF, 0x0F, 0xF0),
        ("shl", 1, 65, 2),
        ("shl", 1, -7, 0x0200_0000_0000_0000),
        ("shr", SIGN, 63, 1),
        ("shr", SIGN, -7, 64),
    ])
    def test_immediate_form(self, engine, op, lhs, imm, expected):
        b = ProgramBuilder()
        b.li("r1", lhs)
        b.alu(op, "r3", "r1", imm=imm)
        b.halt()
        assert ENGINES[engine](b.build()).registers[3] == expected

    @pytest.mark.parametrize("cond,lhs,rhs,taken", [
        ("eq", 5, 5, True),
        ("eq", 5, 6, False),
        ("eq", -1, MAX, True),
        ("ne", 5, 6, True),
        ("ne", 7, 7, False),
        ("lt", -1, 1, True),
        ("lt", 1, -1, False),
        ("lt", 3, 3, False),
        ("lt", SIGN, 0x7FFF_FFFF_FFFF_FFFF, True),
        ("ge", -1, 1, False),
        ("ge", 1, -1, True),
        ("ge", 3, 3, True),
        ("ge", 0x7FFF_FFFF_FFFF_FFFF, SIGN, True),
    ])
    def test_branch(self, engine, cond, lhs, rhs, taken):
        b = ProgramBuilder()
        b.li("r1", lhs)
        b.li("r2", rhs)
        b.li("r3", 0)
        b.branch(cond, "r1", "r2", "taken")
        b.halt()
        b.label("taken")
        b.li("r3", 1)
        b.halt()
        assert ENGINES[engine](b.build()).registers[3] == int(taken)
