"""Object lifetime: a simulation job's objects are freed by reference
counting alone.

Every cell of the attack matrix and every verify case builds its own
machine.  None of the objects a job creates — the machine, its memory
hierarchy, its SafeSpec engine (which the hierarchy holds only weakly),
its backend and the backend's lowered code, squashed micro-ops — may
form a reference cycle, or each job would leave its whole machine to
the cycle collector.  Each check runs with the
collector disabled, so a cycle shows up as an object that outlives its
last reference.

Also here: the fast backend lowers an instruction only when it first
executes, and keeps the lowered code for the next run on the same
machine.
"""

import gc
import weakref

import pytest

from repro.api.session import Session
from repro.backends.fast import FastBackend
from repro.core.policy import CommitPolicy
from repro.isa.assembler import ProgramBuilder
from repro.machine import Machine
from repro.verify import fuzz_profile, generate_fuzz_program

BACKENDS = ("cycle", "fast")


@pytest.fixture
def no_collector():
    """Run the test body with the cycle collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("policy", [CommitPolicy.BASELINE, CommitPolicy.WFC,
                                    CommitPolicy.WFB],
                         ids=["baseline", "wfc", "wfb"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_machine_freed_when_dropped(backend, policy, no_collector):
    case = generate_fuzz_program(fuzz_profile("mixed"), 3)
    machine = Machine(policy=policy, backend=backend)
    case.apply_memory_image(machine)
    result = machine.run(case.program,
                         fault_handler_pc=case.fault_handler_pc)
    assert result.instructions > 0
    assert (machine.engine is None) == (policy is CommitPolicy.BASELINE)
    refs = [weakref.ref(obj) for obj in (
        machine, machine.hierarchy, machine._backend_impl, machine.engine)
        if obj is not None]
    del machine
    assert [ref() is None for ref in refs] == [True] * len(refs)


def _session_jobs(backend):
    session = Session(cache=False)
    return (
        session.matrix(attacks=["spectre_v1", "meltdown"], backend=backend),
        session.verify(count=2, seed=0, backend=backend),
        session.sample("namd", policy=CommitPolicy.WFC, instructions=3_000,
                       interval=1_500, warmup=200, windows=2, window=400,
                       backend=backend),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_jobs_leave_no_cyclic_garbage(backend, no_collector):
    # The first run pays one-time costs (lazy imports, per-process
    # memos), which may leave unreachable objects of their own.
    _session_jobs(backend)
    gc.collect()
    results = _session_jobs(backend)
    del results
    assert gc.collect() == 0


def _jump_over_nops(count):
    b = ProgramBuilder(code_base=0x1000)
    b.jmp("end")
    b.nop(count)
    b.label("end")
    b.halt()
    return b.build()


def test_fast_backend_lowers_only_executed_instructions(monkeypatch):
    lowered = []
    original = FastBackend._lower_one

    def spy(self, program, idx, inst):
        lowered.append(idx)
        return original(self, program, idx, inst)

    monkeypatch.setattr(FastBackend, "_lower_one", spy)
    program = _jump_over_nops(1_000)
    machine = Machine(backend="fast")

    first = machine.run(program)
    assert first.halted_reason == "halt"
    assert lowered == [0, 1_001]

    lowered.clear()
    second = machine.run(program)
    assert second.halted_reason == "halt"
    assert lowered == []
