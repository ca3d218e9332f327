"""Spectre variant 2: branch target injection (paper Section II-B.3).

The victim makes an indirect jump through a function pointer.  The
attacker:

a) runs on the same core, sharing the (untagged, partially indexed) BTB;
b) executes its *own* indirect branch at a virtual address that collides
   with the victim's in the BTB index, with the victim's gadget address
   as the target — poisoning the shared entry;
c) flushes the victim's function pointer so the indirect jump resolves
   late, opening the speculation window;
d) triggers the victim: the poisoned BTB redirects speculative execution
   into the gadget, which reads the secret and transmits it through the
   probe array.

The attacker's and victim's branch PCs differ (different "processes" /
code regions) but alias in the BTB — exactly the collision mechanism of
the paper's reference [5].
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.attacks.gadgets import (AttackLayout, build_poisoner,
                                   indirect_jump_pc, read_and_transmit)
from repro.attacks.runner import Attack, Receiver, mistrain, register
from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine

_FNPTR_ADDR_OFFSET = 0x800  # function pointer lives in the size page


def build_victim(layout: AttackLayout) -> Program:
    """Victim: loads a function pointer and jumps through it.

    The gadget (secret read + transmit) exists in the victim's code but
    is never architecturally reached — the legitimate target is
    ``benign``.
    """
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr + _FNPTR_ADDR_OFFSET)
    b.load("r1", "r2", 0)              # function pointer (flushed)
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    b.jmpi("r1")                       # the hijacked indirect jump
    b.label("benign")
    b.halt()
    b.label("gadget")
    read_and_transmit(b)
    return b.build()


def hijack_attack(layout: AttackLayout, secret: int, victim: Program,
                  cells: Sequence[Tuple[int, int]],
                  train: Callable[[Machine, Receiver], object],
                  **facts: object) -> Attack:
    """The steps around a ``victim`` whose indirect jump or return
    resolves through the pointer ``cells`` (address, value; the last
    holds the ``benign`` target) and is poisoned by ``train``: the cells
    are warm, then flushed to open the window in which speculation runs
    the ``gadget``.  ``facts`` join the details."""
    gadget_pc = victim.label_pc("gadget")
    return Attack(
        program=victim,
        words=[(layout.secret_addr, secret), *cells],
        warm=[layout.secret_addr, *(address for address, _ in cells)],
        train=train,
        flush=[address for address, _ in cells],
        details=lambda run, hot, **trained: {
            "hot_slots": hot,
            **trained,
            **facts,
            "gadget_pc": gadget_pc,
            "victim_cycles": run.cycles,
        })


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    victim = build_victim(layout)

    def train(machine: Machine, receiver: Receiver) -> dict:
        mistrain(victim, 2)(machine, receiver)  # warm victim code/BTB
        # b) poison: the attacker's colliding jmpi installs the gadget
        # target.
        machine.run(build_poisoner(layout, victim,
                                   machine.btb.config.entries,
                                   machine.btb.config.shift))
        return {"poisoned_target":
                machine.btb.predict_target(indirect_jump_pc(victim))}

    return hijack_attack(
        layout, secret, victim,
        [(layout.size_addr + _FNPTR_ADDR_OFFSET, victim.label_pc("benign"))],
        train)


run_spectre_v2 = register("spectre_v2", _attack)
