"""SpectreRSB: return-address injection through the shared RSB.

The return stack buffer predicts ``ret`` targets and — like the BTB —
is untagged and shared across execution contexts.  The attacker:

a) executes a ``call`` whose *fall-through address aliases the victim's
   gadget* — the call pushes that address onto the shared RSB and
   returns harmlessly inside the attacker's own code;
b) flushes the memory word holding the victim's return pointer so the
   victim's ``ret`` resolves late, opening the speculation window;
c) triggers the victim: its ``ret`` pops the stale attacker-planted
   entry and speculative fetch dives into the gadget, which reads the
   secret and transmits it through the probe array, while the
   architectural return goes to the benign target.

This is the cross-context variant of Koruyeh et al.'s "Spectre Returns"
— same transient window as Spectre v2, different injection structure
(no BTB involvement: returns are never BTB-installed).
"""

from __future__ import annotations

from repro.attacks.gadgets import AttackLayout, read_and_transmit
from repro.attacks.runner import Attack, Receiver, mistrain, register
from repro.attacks.spectre_v2 import hijack_attack
from repro.isa.assembler import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.program import Program
from repro.machine import Machine

_RETPTR_ADDR_OFFSET = 0x808  # return pointer lives in the size page


def build_victim(layout: AttackLayout) -> Program:
    """Victim: loads a return pointer and returns through it.

    The gadget exists in the victim's code but is never architecturally
    reached — the legitimate return target is ``benign``, which is also
    the ``ret``'s fall-through, so an *unpoisoned* (empty-RSB) run
    speculates harmlessly.
    """
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr + _RETPTR_ADDR_OFFSET)
    b.load("r7", "r2", 0)              # return pointer (flushed)
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    b.ret("r7")                        # RSB-predicted, attacker-steered
    b.label("benign")
    b.halt()
    b.label("gadget")
    read_and_transmit(b)
    return b.build()


def build_pusher(gadget_pc: int) -> Program:
    """Attacker program whose ``call`` plants ``gadget_pc`` in the RSB.

    A call at ``gadget_pc - 16`` pushes its fall-through — exactly the
    victim's gadget address — then returns into the attacker's own halt.
    The attacker never touches victim code or data; the RSB entry is the
    whole exploit.
    """
    b = ProgramBuilder(code_base=gadget_pc - INSTRUCTION_BYTES)
    b.call("r1", "after")
    b.label("after")
    b.halt()
    return b.build()


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    victim = build_victim(layout)
    gadget_pc = victim.label_pc("gadget")

    def train(machine: Machine, receiver: Receiver) -> dict:
        # Warm victim code and translations with legitimate executions.
        mistrain(victim, 2)(machine, receiver)
        # a) plant: the attacker's call pushes the gadget address.
        machine.run(build_pusher(gadget_pc))
        return {"planted_return": machine.rsb.peek()}

    return hijack_attack(
        layout, secret, victim,
        [(layout.size_addr + _RETPTR_ADDR_OFFSET, victim.label_pc("benign"))],
        train)


run_spectre_rsb = register("spectre_rsb", _attack)
