"""Meltdown combined with Spectre v1 (paper Section II-B.4).

"Alternatively, if the attacker can arbitrarily control the exploit
code, she can also avoid the exception by putting the gadget behind a
mispredicted branch, i.e., combining Spectre V1 with Meltdown to read
memory across privilege domains in the same virtual address space."

The kernel read and the transmit sit on the *wrong path* of a mistrained
bounds check, so the permission fault never reaches commit — no signal
handler gymnastics needed.  The flip side of avoiding the fault is that
the attack now depends on a branch misprediction, so (unlike plain
Meltdown) it is closed by **WFB as well as WFC** — a nice confirmation
of the paper's taxonomy: WFB stops everything that needs a mispredicted
branch, WFC additionally stops fault-deferred leaks.
"""

from __future__ import annotations

from repro.attacks.gadgets import AttackLayout
from repro.attacks.runner import Attack, mistrain, register
from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine
from repro.memory.paging import PrivilegeLevel

_TRAINING_RUNS = 6


def build_attacker(layout: AttackLayout) -> Program:
    """Bounds-check-guarded kernel read (offset arrives in r1)."""
    b = ProgramBuilder(code_base=layout.attacker_code)
    b.li("r2", layout.size_addr)
    b.load("r3", "r2", 0)              # flushed bound -> window
    b.li("r9", layout.probe)
    b.branch("ge", "r1", "r3", "skip")
    # wrong path in the attack run: the illegal read + transmit
    b.li("r8", layout.kernel)
    b.load("r4", "r8", 0)              # kernel secret, never commits
    b.alu("shl", "r5", "r4", imm=6)
    b.add("r10", "r9", "r5")
    b.load("r6", "r10", 0)             # transmit
    b.label("skip")
    b.halt()
    return b.build()


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    attacker = build_attacker(layout)
    handler_pc = attacker.label_pc("skip")
    return Attack(
        program=attacker,
        kernel=True,
        words=[(layout.size_addr, 16), (layout.kernel, secret)],
        # The kernel recently used the secret (supervisor access warms it).
        warm=[layout.kernel],
        warm_privilege=PrivilegeLevel.SUPERVISOR,
        # Mistrain the bounds check toward not-taken.  With an in-bounds
        # offset the gadget body executes architecturally, so each
        # training run faults on the kernel read and recovers through the
        # handler — exactly how real Meltdown attack loops behave (and
        # also how the attacker's code lines get warm).
        train=mistrain(attacker, _TRAINING_RUNS, initial_registers={1: 0},
                       fault_handler_pc=handler_pc),
        flush=[layout.size_addr],
        # Attack run: offset >= bound, so the branch is *actually* taken
        # and the gadget runs purely speculatively; the stale not-taken
        # prediction opens the window, the squash swallows the fault.
        registers={1: 64},
        fault_handler_pc=handler_pc,
        details=lambda run, hot: {
            "hot_slots": hot,
            "attack_run_faults": [e.kind for e in run.fault_events],
            "victim_cycles": run.cycles,
        })


run_meltdown_spectre = register("meltdown_spectre", _attack)
