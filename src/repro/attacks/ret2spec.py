"""ret2spec: RSB underflow through deep call nesting.

The RSB is a fixed-depth circular stack: a call chain deeper than the
RSB evicts the oldest return addresses, and the matching outer ``ret``
later pops an *empty* RSB.  With no prediction the front end falls
through — straight into whatever the attacker (or unlucky code layout)
placed after the ``ret``.  Maurice et al.'s ret2spec turns this into a
speculative gadget dispatch entirely within one victim program:

a) the machine's RSB is sized below the victim's call depth
   (``rsb.depth=4`` against a 5-deep nest), so the outermost frame's
   return address is evicted by the innermost call;
b) the outer frame's return register is data-dependent on a flushed
   load, so the underflowing ``ret`` resolves late — a long window;
c) the ``ret``'s fall-through is the gadget: speculative fetch runs it,
   reading the secret and transmitting through the probe array, while
   the architectural return unwinds correctly to the caller.
"""

from __future__ import annotations

from repro.attacks.gadgets import AttackLayout
from repro.attacks.runner import Attack, mistrain, register
from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine

_RSB_DEPTH = 4          # the victim's call nest is 5 deep


def build_victim(layout: AttackLayout) -> Program:
    """One program: a 5-deep call nest whose outermost return underflows.

    Call chain main -> f1 -> f2 -> f3 -> f4 -> f5 pushes five return
    addresses through a depth-4 RSB, evicting main's.  The inner frames
    pop their own (correctly predicted) entries; f1's ``ret`` pops
    empty and speculates into its fall-through — the gadget.  ``r4``
    (f1's return address) is rebuilt through a flushed-load dependence
    so the ret resolves late.
    """
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    b.li("r2", layout.delay1)
    b.call("r4", "f1")
    b.halt()                           # main's return target
    b.label("f1")
    b.load("r3", "r2", 0)              # flushed delay word (slow)
    b.alu("and", "r12", "r3", "r0")    # r12 = r3 & 0 = 0, dep on r3
    b.call("r5", "f2")
    b.add("r4", "r4", "r12")           # r4 unchanged, now resolves late
    b.ret("r4")                        # pops EMPTY -> falls through
    b.label("gadget")                  # the ret's fall-through
    b.load("r13", "r10", 0)            # secret
    b.alu("shl", "r14", "r13", imm=6)
    b.add("r11", "r9", "r14")
    b.load("r15", "r11", 0)            # transmit
    b.halt()
    b.label("f2")
    b.call("r6", "f3")
    b.ret("r5")
    b.label("f3")
    b.call("r7", "f4")
    b.ret("r6")
    b.label("f4")
    b.call("r8", "f5")
    b.ret("r7")
    b.label("f5")
    b.ret("r8")
    return b.build()


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    victim = build_victim(layout)
    return Attack(
        program=victim,
        words=[(layout.secret_addr, secret)],
        # The victim has touched its secret and delay word recently.
        warm=[layout.secret_addr, layout.delay1],
        # Warm victim code and translations (the call nest is balanced,
        # so every run leaves the RSB empty again).
        train=mistrain(victim, 2),
        # Flush the delay word (stretches the underflowing ret's window).
        flush=[layout.delay1],
        details=lambda run, hot: {
            "hot_slots": hot,
            "rsb_depth": _RSB_DEPTH,
            "gadget_pc": victim.label_pc("gadget"),
            "victim_cycles": run.cycles,
        })


run_ret2spec = register("ret2spec", _attack,
                        spec_overrides={"rsb.depth": _RSB_DEPTH})
