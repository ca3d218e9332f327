"""Unit tests for ROB, LSQ, issue queue and functional units."""

import pytest

from repro_testlib import DATA_BASE, make_user_machine
from repro import ProgramBuilder
from repro.errors import ConfigError, SimulationError
from repro.isa.instructions import Instruction, InstructionClass, Opcode
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.issue import FunctionalUnits, IssueQueue
from repro.pipeline.lsq import BLOCKED, LoadStoreQueue
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.uop import DynUop, UopState


def make_uop(seq, opcode=Opcode.NOP, **kwargs):
    if opcode is Opcode.LOAD:
        inst = Instruction(Opcode.LOAD, rd=1, rs1=2)
    elif opcode is Opcode.STORE:
        inst = Instruction(Opcode.STORE, rs1=2, rs2=3)
    else:
        inst = Instruction(opcode)
    uop = DynUop(seq, inst, 0x1000 + seq * 16, 0)
    for key, value in kwargs.items():
        setattr(uop, key, value)
    return uop


class TestCoreConfig:
    def test_defaults_match_table1(self):
        cfg = CoreConfig()
        assert cfg.issue_width == 6
        assert cfg.rob_entries == 224
        assert cfg.iq_entries == 96
        assert cfg.ldq_entries == 72
        assert cfg.stq_entries == 56

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            CoreConfig(fetch_width=0)

    def test_rejects_iq_larger_than_rob(self):
        with pytest.raises(ConfigError):
            CoreConfig(rob_entries=10, iq_entries=20)


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        a, b = make_uop(1), make_uop(2)
        rob.push(a)
        rob.push(b)
        assert rob.head() is a
        assert list(rob) == [a, b]

    def test_overflow_raises(self):
        rob = ReorderBuffer(1)
        rob.push(make_uop(1))
        with pytest.raises(SimulationError):
            rob.push(make_uop(2))

    def test_squash_younger(self):
        rob = ReorderBuffer(8)
        uops = [make_uop(i) for i in range(5)]
        for uop in uops:
            rob.push(uop)
        squashed = rob.squash_younger_than(2)
        assert [u.seq for u in squashed] == [3, 4]
        assert all(u.state is UopState.SQUASHED for u in squashed)
        assert len(rob) == 3

    def test_squash_all(self):
        rob = ReorderBuffer(4)
        rob.push(make_uop(0))
        rob.push(make_uop(1))
        assert len(rob.squash_all()) == 2
        assert rob.empty


def enqueue(lsq, *uops):
    """Append micro-ops to their queue in program order, as dispatch
    does."""
    for uop in uops:
        (lsq._loads if uop.is_load else lsq._stores).append(uop)


class TestLoadStoreQueue:
    def test_capacity_flags(self):
        # Dispatch stops at a full LDQ: with one entry, a run of loads
        # never has two in flight.
        machine = make_user_machine()
        b = ProgramBuilder()
        b.li("r1", DATA_BASE)
        for offset in range(0, 64, 8):
            b.load("r2", "r1", offset)
        b.halt()
        program = b.build()
        machine.page_table.map_range(program.code_base, program.code_bytes)
        peak = []
        core = Core(program, machine.hierarchy,
                    config=CoreConfig(ldq_entries=1),
                    observer=lambda *_: peak.append(len(core.lsq._loads)))
        assert core.run().halted_reason == "halt"
        assert max(peak) == core.lsq.ldq_capacity == 1

    def test_older_store_with_unknown_address_blocks(self):
        lsq = LoadStoreQueue(4, 4)
        store = make_uop(0, Opcode.STORE)
        load = make_uop(1, Opcode.LOAD, vaddr=0x100)
        enqueue(lsq, store, load)
        assert lsq.older_store_blocks(load)
        assert lsq.forward_or_block(load) is BLOCKED
        store.vaddr = 0x200
        assert not lsq.older_store_blocks(load)
        assert lsq.forward_or_block(load) is None

    def test_forwarding_from_matching_store(self):
        lsq = LoadStoreQueue(4, 4)
        store = make_uop(0, Opcode.STORE, vaddr=0x100, store_value=42)
        load = make_uop(1, Opcode.LOAD, vaddr=0x100)
        enqueue(lsq, store, load)
        assert lsq.forward_or_block(load) == 42

    def test_youngest_matching_store_wins(self):
        lsq = LoadStoreQueue(4, 4)
        s1 = make_uop(0, Opcode.STORE, vaddr=0x100, store_value=1)
        s2 = make_uop(1, Opcode.STORE, vaddr=0x100, store_value=2)
        load = make_uop(2, Opcode.LOAD, vaddr=0x100)
        enqueue(lsq, s1, s2, load)
        assert lsq.forward_or_block(load) == 2

    def test_younger_store_does_not_forward(self):
        lsq = LoadStoreQueue(4, 4)
        load = make_uop(0, Opcode.LOAD, vaddr=0x100)
        store = make_uop(1, Opcode.STORE, vaddr=0x100, store_value=9)
        enqueue(lsq, load, store)
        assert lsq.forward_or_block(load) is None

    def test_non_overlapping_store_does_not_forward(self):
        lsq = LoadStoreQueue(4, 4)
        store = make_uop(0, Opcode.STORE, vaddr=0x100, store_value=9)
        load = make_uop(1, Opcode.LOAD, vaddr=0x200)
        enqueue(lsq, store, load)
        assert lsq.forward_or_block(load) is None

    def test_drop_squashed(self):
        lsq = LoadStoreQueue(1, 1)
        load = make_uop(0, Opcode.LOAD)
        enqueue(lsq, load)
        loads = lsq._loads
        load.state = UopState.SQUASHED
        lsq.drop_squashed()
        assert not lsq._loads and lsq._loads is loads


class TestIssueQueue:
    def test_ready_at_add_when_no_producers(self):
        iq = IssueQueue(4)
        uop = make_uop(0)
        uop.state = UopState.DISPATCHED
        iq.add(uop)
        assert uop in iq.ready_uops()

    def test_not_ready_until_woken(self):
        iq = IssueQueue(4)
        first, second = make_uop(0), make_uop(1)
        uop = make_uop(2)
        uop.state = UopState.DISPATCHED
        uop.pending = 2
        first.waiters.append(uop)
        second.waiters.append(uop)
        iq.add(uop)
        assert uop not in iq.ready_uops()
        iq.wake_waiters(first)
        assert uop not in iq.ready_uops() and not first.waiters
        iq.wake_waiters(second)
        assert uop in iq.ready_uops()

    def test_ready_is_oldest_first(self):
        iq = IssueQueue(4)
        young, old = make_uop(5), make_uop(1)
        for uop in (young, old):
            uop.state = UopState.DISPATCHED
            iq.add(uop)
        assert [u.seq for u in iq.ready_uops()] == [1, 5]

    def test_overflow_raises(self):
        iq = IssueQueue(1)
        iq.add(make_uop(0))
        with pytest.raises(SimulationError):
            iq.add(make_uop(1))

    def test_drop_squashed_purges_ready(self):
        iq = IssueQueue(4)
        uop = make_uop(0)
        uop.state = UopState.DISPATCHED
        iq.add(uop)
        uop.state = UopState.SQUASHED
        iq.drop_squashed()
        assert not iq.ready_uops()


class TestFunctionalUnits:
    def test_claims_bounded_per_cycle(self):
        fus = FunctionalUnits(CoreConfig(mul_units=1))
        fus.new_cycle()
        assert fus.try_claim(InstructionClass.MUL)
        assert not fus.try_claim(InstructionClass.MUL)

    def test_new_cycle_releases(self):
        fus = FunctionalUnits(CoreConfig(mul_units=1))
        fus.new_cycle()
        fus.try_claim(InstructionClass.MUL)
        fus.new_cycle()
        assert fus.try_claim(InstructionClass.MUL)

    def test_int_alu_count(self):
        config = CoreConfig(int_alus=4)
        fus = FunctionalUnits(config)
        fus.new_cycle()
        claims = sum(fus.try_claim(InstructionClass.INT) for _ in range(6))
        assert claims == 4
