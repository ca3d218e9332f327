"""Meltdown: deferred permission check on a kernel load (paper II-B.4).

The attacking program reads a supervisor-only address from user mode.  The
load executes and returns the secret speculatively (property P1); the
permission fault is raised only when the load reaches the head of the
reorder buffer.  By then a dependent, secret-indexed load has already
deposited its line — in the caches on the baseline, in the shadow
structures under SafeSpec.

Two standard Meltdown preparations are used:

* A chain of flushed loads ahead of the faulting load keeps the ROB head
  busy, so the fault is raised long after the transmitting load executed.
* The attacker pre-warms its own probe-array translations so the
  transmitting load completes quickly.

The crucial WFB/WFC split: the transmitting load depends on **no branch**,
so under WFB its shadow line is promoted into the caches as soon as it
arrives (all zero of its older branches have resolved) — before the fault
squashes anything.  WFB therefore does *not* stop Meltdown (paper
Table III); WFC holds the line in shadow until commit, which never comes.
"""

from __future__ import annotations

from repro.attacks.gadgets import AttackLayout, PAGE, warm_lines
from repro.attacks.runner import Attack, Receiver, register
from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine
from repro.memory.paging import PrivilegeLevel


def build_attacker(layout: AttackLayout) -> Program:
    """The Meltdown attacker (runs entirely in user mode)."""
    b = ProgramBuilder(code_base=layout.attacker_code)
    # Retirement delay: two dependent flushed loads.
    b.li("r1", layout.delay1)
    b.load("r2", "r1", 0)
    b.alu("and", "r3", "r2", imm=0)        # data dependence, value 0
    b.li("r12", layout.delay2)
    b.add("r13", "r12", "r3")
    b.load("r14", "r13", 0)
    # The illegal read (faults at commit, data available speculatively).
    b.li("r8", layout.kernel)
    b.load("r4", "r8", 0)
    # Transmit through the probe array.
    b.alu("shl", "r5", "r4", imm=6)
    b.li("r9", layout.probe)
    b.add("r10", "r9", "r5")
    b.load("r6", "r10", 0)
    # Fault recovery lands here (modelling the SIGSEGV handler).
    b.label("handler")
    b.halt()
    return b.build()


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    attacker = build_attacker(layout)
    handler_pc = attacker.label_pc("handler")

    def train(machine: Machine, receiver: Receiver) -> None:
        # First iteration of the attack loop: warms the attacker's own
        # code lines, delay translations and probe translations.
        machine.run(attacker, fault_handler_pc=handler_pc)
        probe_pages = [layout.probe + page * PAGE for page in range(4)]
        warm_lines(machine, probe_pages, code_base=layout.helper_code)

    return Attack(
        program=attacker,
        kernel=True,
        words=[(layout.kernel, secret)],
        # The kernel touched the secret recently (supervisor-mode access).
        warm=[layout.kernel],
        warm_privilege=PrivilegeLevel.SUPERVISOR,
        train=train,
        # Flush the delay words (and the receiver its probe array).
        flush=[layout.delay1, layout.delay2],
        fault_handler_pc=handler_pc,
        details=lambda run, hot: {
            "hot_slots": hot,
            "faults": [event.kind for event in run.fault_events],
            "attacker_cycles": run.cycles,
        })


run_meltdown = register("meltdown", _attack, branch_free=True)
