"""Integration tests for the out-of-order core's execution semantics.

Machine/program construction comes from the shared ``conftest.py``
fixtures (``run_program``, ``user_machine``); this file owns only the
semantics being asserted.
"""

import pytest

from repro_testlib import (DATA_BASE as DATA, KERNEL_BASE, POLICIES,
                           make_user_machine)
from repro import CommitPolicy, ProgramBuilder
from repro.errors import SimulationError
from repro.memory.paging import PrivilegeLevel
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.trace import PipelineTracer
from repro.verify.oracle import ReferenceOracle


class TestAluSemantics:
    @pytest.mark.parametrize("op,lhs,rhs,expected", [
        ("add", 5, 3, 8),
        ("sub", 5, 3, 2),
        ("mul", 5, 3, 15),
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("shl", 3, 2, 12),
        ("shr", 12, 2, 3),
    ])
    def test_register_ops(self, run_program, op, lhs, rhs, expected):
        def build(b):
            b.li("r1", lhs)
            b.li("r2", rhs)
            b.alu(op, "r3", "r1", "r2")
            b.halt()
        _, result = run_program(build)
        assert result.reg("r3") == expected

    def test_sub_wraps_unsigned(self, run_program):
        def build(b):
            b.li("r1", 0)
            b.alu("sub", "r2", "r1", imm=1)
            b.halt()
        _, result = run_program(build)
        assert result.reg("r2") == 2**64 - 1

    def test_immediate_form(self, run_program):
        def build(b):
            b.li("r1", 10)
            b.alu("add", "r2", "r1", imm=7)
            b.halt()
        _, result = run_program(build)
        assert result.reg("r2") == 17

    def test_dependency_chain(self, run_program):
        def build(b):
            b.li("r1", 1)
            for _ in range(10):
                b.alu("add", "r1", "r1", "r1")  # doubles each time
            b.halt()
        _, result = run_program(build)
        assert result.reg("r1") == 1024


class TestMemorySemantics:
    def test_store_load_roundtrip(self, run_program):
        def build(b):
            b.li("r1", DATA)
            b.li("r2", 1234)
            b.store("r1", "r2", 0)
            b.load("r3", "r1", 0)
            b.halt()
        _, result = run_program(build)
        assert result.reg("r3") == 1234

    def test_store_to_load_forwarding_preserves_value(self, run_program):
        """A load right behind the store must see the store's data even
        though the store has not committed when the load issues."""
        def build(b):
            b.li("r1", DATA)
            b.li("r2", 77)
            b.store("r1", "r2", 8)
            b.load("r3", "r1", 8)
            b.alu("add", "r4", "r3", imm=1)
            b.halt()
        _, result = run_program(build)
        assert result.reg("r4") == 78

    def test_memory_visible_after_store_commit(self, run_program):
        def build(b):
            b.li("r1", DATA)
            b.li("r2", 55)
            b.store("r1", "r2", 16)
            b.halt()
        machine, _ = run_program(build)
        assert machine.read_word(DATA + 16) == 55

    def test_load_from_preinitialised_memory(self, run_program):
        def setup(machine):
            machine.write_word(DATA + 24, 999)

        def build(b):
            b.li("r1", DATA)
            b.load("r2", "r1", 24)
            b.halt()
        _, result = run_program(build, setup=setup)
        assert result.reg("r2") == 999

    def test_initial_registers(self, run_program):
        def build(b):
            b.alu("add", "r2", "r1", imm=0)
            b.halt()
        _, result = run_program(build, regs={1: 31337})
        assert result.reg("r2") == 31337


class TestControlFlow:
    def test_taken_branch_skips(self, run_program):
        def build(b):
            b.li("r1", 1)
            b.branch("ne", "r1", "r0", "skip")
            b.li("r2", 111)   # must be skipped
            b.label("skip")
            b.li("r3", 222)
            b.halt()
        _, result = run_program(build)
        assert result.reg("r2") == 0
        assert result.reg("r3") == 222

    def test_not_taken_branch_falls_through(self, run_program):
        def build(b):
            b.li("r1", 0)
            b.branch("ne", "r1", "r0", "skip")
            b.li("r2", 111)
            b.label("skip")
            b.halt()
        _, result = run_program(build)
        assert result.reg("r2") == 111

    def test_loop_counts_correctly(self, run_program):
        def build(b):
            b.li("r1", 10)
            b.li("r2", 0)
            b.label("loop")
            b.alu("add", "r2", "r2", imm=3)
            b.alu("sub", "r1", "r1", imm=1)
            b.branch("ne", "r1", "r0", "loop")
            b.halt()
        _, result = run_program(build)
        assert result.reg("r2") == 30

    def test_jmp(self, run_program):
        def build(b):
            b.jmp("end")
            b.li("r1", 1)
            b.label("end")
            b.halt()
        _, result = run_program(build)
        assert result.reg("r1") == 0

    def test_jmpi_lands_on_register_target(self, run_program):
        def build(b):
            b.li("r1", 0)      # patched below via label math is awkward;
            b.jmp("setup")     # compute target with a second jump instead
            b.label("target")
            b.li("r2", 42)
            b.halt()
            b.label("setup")
            # target label is at index 2 -> pc = base + 2*16
            b.li("r1", 0x1000 + 2 * 16)
            b.jmpi("r1")
        _, result = run_program(build)
        assert result.reg("r2") == 42

    def test_jmpi_to_la_address(self, run_program):
        def build(b):
            b.la("r1", "target")
            b.jmpi("r1")
            b.li("r2", 666)
            b.label("target")
            b.li("r3", 42)
            b.halt()
        _, result = run_program(build)
        assert result.reg("r2") == 0
        assert result.reg("r3") == 42

    def test_mispredicted_branch_leaves_no_architectural_effects(
            self, run_program):
        """Wrong-path writes must never reach the register file."""
        def setup(machine):
            machine.write_word(DATA, 1)

        def build(b):
            b.li("r1", DATA)
            b.load("r2", "r1", 0)          # r2 = 1, delayed (cold miss)
            b.branch("eq", "r2", "r0", "wrong")  # predicted NT... actual NT
            b.jmp("end")
            b.label("wrong")
            b.li("r3", 666)
            b.label("end")
            b.halt()
        _, result = run_program(build, setup=setup)
        assert result.reg("r3") == 0

    def test_branch_wrong_path_squashed_after_training(self, user_machine):
        """Train a branch one way, then flip the condition: the stale
        prediction speculates down the wrong path, which must be fully
        annulled."""
        machine = user_machine(data_bytes=4096)
        machine.write_word(DATA, 0)
        b = ProgramBuilder()
        b.li("r1", DATA)
        b.load("r2", "r1", 0)
        b.branch("eq", "r2", "r0", "zero_path")
        b.li("r3", 1)                       # value != 0 path
        b.jmp("end")
        b.label("zero_path")
        b.li("r3", 2)                       # value == 0 path
        b.label("end")
        b.halt()
        program = b.build()
        for _ in range(4):                  # train: value == 0
            assert machine.run(program).reg("r3") == 2
        machine.write_word(DATA, 5)         # flip the condition
        result = machine.run(program)
        assert result.reg("r3") == 1
        assert result.counters["mispredicts"] >= 1


class TestSerialisation:
    def test_rdtsc_monotonic_and_ordered(self, run_program):
        def build(b):
            b.rdtsc("r1")
            b.li("r2", DATA)
            b.load("r3", "r2", 0)       # cold miss: ~200 cycles
            b.alu("and", "r4", "r3", imm=0)
            b.rdtsc("r5")
            b.alu("add", "r5", "r5", "r4")  # depend on the load
            b.halt()
        _, result = run_program(build)
        # The second timestamp must include the full load latency.
        assert result.reg("r5") - result.reg("r1") > 150

    def test_fence_blocks_younger_issue(self, run_program):
        def build(b):
            b.li("r1", DATA)
            b.load("r2", "r1", 0)
            b.fence()
            b.rdtsc("r3")
            b.halt()
        _, result = run_program(build)
        assert result.reg("r3") > 150  # rdtsc issued after fence drained

    def test_clflush_evicts_at_commit(self, user_machine):
        machine = user_machine(data_bytes=4096)
        b = ProgramBuilder()
        b.li("r1", DATA)
        b.load("r2", "r1", 0)     # brings the line in
        b.clflush("r1", 0)
        b.halt()
        machine.run(b.build())
        assert not machine.hierarchy.l1d.contains(DATA)


class TestFaults:
    def test_unmapped_load_faults_at_commit(self, run_program):
        def build(b):
            b.li("r1", 0xDEAD0000)
            b.load("r2", "r1", 0)
            b.li("r3", 1)  # younger: must be squashed by the fault
            b.halt()
        _, result = run_program(build)
        assert result.halted_reason == "fault"
        assert result.fault_events[0].kind == "unmapped"
        assert result.reg("r3") == 0

    def test_kernel_load_faults_for_user(self, user_machine, load_program):
        machine = user_machine(data_bytes=0, kernel=True)
        result = machine.run(load_program(KERNEL_BASE))
        assert result.fault_events[0].kind == "permission"
        assert result.reg("r2") == 0  # never architecturally written

    def test_kernel_load_allowed_for_supervisor(self, user_machine,
                                                load_program):
        machine = user_machine(data_bytes=0, kernel=True)
        machine.hierarchy.memory.write_word(KERNEL_BASE, 7)
        result = machine.run(load_program(KERNEL_BASE),
                             privilege=PrivilegeLevel.SUPERVISOR)
        assert not result.fault_events
        assert result.reg("r2") == 7

    def test_fault_handler_redirect(self, user_machine):
        machine = user_machine(data_bytes=4096)
        b = ProgramBuilder()
        b.li("r1", 0xDEAD0000)
        b.load("r2", "r1", 0)
        b.halt()
        b.label("handler")
        b.li("r3", 99)
        b.halt()
        program = b.build()
        result = machine.run(
            program, fault_handler_pc=program.label_pc("handler"))
        assert result.halted_reason == "halt"
        assert result.reg("r3") == 99

    @pytest.mark.parametrize("backend", ["cycle", "fast"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_handler_reads_register_last_written_on_squashed_path(
            self, policy, backend):
        """The fault squashes every younger micro-op, so the handler
        reads r3's committed value — and does not wait on the squashed
        producer of r3 for ever."""
        b = ProgramBuilder()
        b.li("r3", 7)
        b.li("r1", KERNEL_BASE)
        b.load("r2", "r1", 0)
        b.li("r3", 99)                  # squashed by the fault
        b.alu("add", "r5", "r3", imm=1)
        b.halt()
        b.label("handler")
        b.alu("add", "r4", "r3", imm=1)
        b.halt()
        program = b.build()
        handler = program.label_pc("handler")
        machine = make_user_machine(policy=policy, data_bytes=0,
                                    kernel=True, backend=backend)
        result = machine.run(program, fault_handler_pc=handler)
        oracle = ReferenceOracle()
        oracle.map_kernel_range(KERNEL_BASE, 4096)
        expected = oracle.run(program, fault_handler_pc=handler)
        assert result.halted_reason == expected.halted_reason == "halt"
        assert (result.reg("r3"), result.reg("r4")) == (7, 8)
        for index, value in expected.untainted_registers().items():
            assert result.registers[index] == value, f"r{index}"

    def test_store_permission_fault(self, user_machine):
        machine = user_machine(data_bytes=0, kernel=True)
        b = ProgramBuilder()
        b.li("r1", KERNEL_BASE)
        b.li("r2", 1)
        b.store("r1", "r2", 0)
        b.halt()
        result = machine.run(b.build())
        assert result.fault_events[0].kind == "permission"
        assert machine.hierarchy.memory.read_word(KERNEL_BASE) == 0


class TestRunTermination:
    def test_instruction_budget(self, run_program):
        def build(b):
            b.label("spin")
            b.alu("add", "r1", "r1", imm=1)
            b.jmp("spin")
        _, result = run_program(build, max_instructions=50)
        assert result.halted_reason == "budget"
        assert result.instructions >= 50

    def test_running_off_code_halts(self, run_program):
        def build(b):
            b.li("r1", 5)  # no halt: falls off the end
        _, result = run_program(build)
        assert result.halted_reason == "ran_off_code"
        assert result.reg("r1") == 5

    def test_ipc_computed(self, run_program):
        def build(b):
            b.li("r1", 1)
            b.halt()
        _, result = run_program(build)
        assert 0 < result.ipc < 6


def _bare_core(build, policy, setup=None, observer=None, **config):
    """A :class:`Core` over a fresh user machine, so tests can read its
    clock after :meth:`Core.run` raises."""
    machine = make_user_machine(policy=policy)
    if setup:
        setup(machine)
    b = ProgramBuilder()
    build(b)
    program = b.build()
    machine.page_table.map_range(program.code_base, program.code_bytes)
    return Core(program, machine.hierarchy, config=CoreConfig(**config),
                predictor=machine.predictor, btb=machine.btb,
                rsb=machine.rsb, engine=machine.engine, observer=observer)


def _pointer_chain_setup(machine):
    for hop in range(8):
        machine.write_word(DATA + hop * 0x1000, DATA + (hop + 1) * 0x1000)


def _pointer_chain(b):
    """Eight dependent loads, each a cold miss to DRAM on a fresh page."""
    b.li("r1", DATA)
    for _ in range(8):
        b.load("r1", "r1", 0)
    b.halt()


class TestClockBoundaries:
    """Cycles on which the run loop's stop conditions and the stages
    act, pinned at their per-cycle-stepping values: the clock skips
    cycles on which no stage can act, and must never move these."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_max_cycles_fires_mid_stall(self, policy):
        core = _bare_core(_pointer_chain, policy, _pointer_chain_setup,
                          max_cycles=1000)
        with pytest.raises(SimulationError,
                           match=r"^exceeded max_cycles=1000$"):
            core.run()
        assert core.cycle == 1000

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pointer_chain_cycles(self, policy):
        core = _bare_core(_pointer_chain, policy, _pointer_chain_setup)
        result = core.run()
        assert result.halted_reason == "halt"
        assert result.reg("r1") == DATA + 8 * 0x1000
        assert result.cycles == 2802

    @pytest.mark.parametrize("policy", POLICIES)
    def test_jump_off_code_halts_on_pinned_cycle(self, policy):
        def build(b):
            b.li("r1", DATA)
            b.load("r2", "r1", 0)          # cold: the jump waits on DRAM
            b.alu("add", "r3", "r2", imm=0x700000)
            b.jmpi("r3")                   # mispredicts, then off code
        result = _bare_core(build, policy).run()
        assert result.halted_reason == "ran_off_code"
        assert result.instructions == 4
        assert result.cycles == 1366

    @pytest.mark.parametrize("policy", POLICIES)
    def test_imiss_then_front_end_depth_commit_cycle(self, policy):
        def build(b):
            b.li("r1", 5)
            b.halt()
        tracer = PipelineTracer()
        result = _bare_core(build, policy, observer=tracer).run()
        by_kind = {}
        for event in tracer.events:
            by_kind.setdefault(event.kind, []).append(event.cycle)
        # The cold i-fetch stalls fetch until cycle 951; both micro-ops
        # then wait out the 5-cycle front end and commit together.
        assert by_kind["fetch"] == [0, 951]
        assert by_kind["dispatch"] == [956, 956]
        assert by_kind["commit"] == [959, 959]
        assert result.cycles == 959


class TestArchitecturalEquivalence:
    """SafeSpec must not change what programs compute — only their
    micro-architectural footprint (paper Section III: speculation does
    not affect correctness).  The systematic version of this check is
    ``repro verify`` (tests/test_verify_harness.py)."""

    def _checksum_program(self):
        b = ProgramBuilder()
        b.li("r1", DATA)
        b.li("r2", 17)
        b.li("r5", 0)
        b.li("r6", 8)
        b.label("loop")
        b.alu("mul", "r2", "r2", imm=1103515245)
        b.alu("add", "r2", "r2", imm=12345)
        b.alu("shr", "r3", "r2", imm=40)
        b.alu("and", "r3", "r3", imm=0xFF8)
        b.add("r4", "r1", "r3")
        b.store("r4", "r2", 0)
        b.load("r7", "r4", 0)
        b.alu("xor", "r5", "r5", "r7")
        b.branch("lt", "r3", "r6", "skip")
        b.alu("add", "r5", "r5", imm=1)
        b.label("skip")
        b.alu("sub", "r6", "r6", imm=-1)
        b.branch("lt", "r6", "r2", "loop")
        b.halt()
        return b.build()

    def test_same_result_under_all_policies(self, user_machine):
        results = {}
        for policy in POLICIES:
            machine = user_machine(policy=policy)
            results[policy] = machine.run(
                self._checksum_program(), max_instructions=2000).registers
        assert results[CommitPolicy.BASELINE] == results[CommitPolicy.WFB]
        assert results[CommitPolicy.BASELINE] == results[CommitPolicy.WFC]
