"""Spectre v2 through a history-indexed BTB (the BHB variant).

With ``btb.history_bits > 0`` the BTB index folds in a branch-history
register (the BHB), as in real front ends — the defense-by-obscurity
claim being that an attacker cannot poison an entry without also
reproducing the victim's branch history.  This attack shows the sharing
survives: the attacker *replays the victim's history* before its own
aliased indirect branch, steering the poisoned entry to the exact
history-dependent index the victim's jump will consult.

a) the victim executes eight always-taken branches before its indirect
   jump, so its fetch-time BHB is a deterministic all-ones pattern;
b) the attacker's poisoner replays eight always-taken branches of its
   own (trained over a few runs until they predict taken) and then
   executes an indirect jump at a BTB-index-aliased PC with the gadget
   as target — installing the gadget under the victim's history;
c) function pointer flushed, victim triggered: the history-indexed BTB
   lookup hits the poisoned entry and speculation dives into the gadget.
"""

from __future__ import annotations

from repro.attacks.gadgets import (AttackLayout, build_poisoner,
                                   prime_history, read_and_transmit)
from repro.attacks.runner import Attack, Receiver, register
from repro.attacks.spectre_v2 import hijack_attack
from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine

_FNPTR_PTR_OFFSET = 0x810   # cell A: address of cell B (distinct line)
_FNPTR_ADDR_OFFSET = 0x880  # cell B: the function pointer itself
_HISTORY_BITS = 8
_POISON_RUNS = 4            # trains the poisoner's priming branches
_WARM_RUNS = 3              # trains the victim's priming branches


def build_victim(layout: AttackLayout) -> Program:
    """Victim: primes its history, then jumps through a function pointer."""
    b = ProgramBuilder(code_base=layout.victim_code)
    # Pointer chase through two flushed cells: the jmpi target resolves
    # only after two serialized DRAM round trips, so the speculation
    # window covers the gadget's own cold instruction fetch (its tail
    # line is never architecturally executed, hence never warm).
    b.li("r2", layout.size_addr + _FNPTR_PTR_OFFSET)
    b.load("r3", "r2", 0)              # cell A -> address of cell B
    b.load("r1", "r3", 0)              # cell B -> function pointer
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    prime_history(b, "p", _HISTORY_BITS)
    b.jmpi("r1")                       # history-indexed BTB lookup
    b.label("benign")
    b.halt()
    b.label("gadget")
    read_and_transmit(b)
    return b.build()


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    victim = build_victim(layout)
    fnptr_ptr = layout.size_addr + _FNPTR_PTR_OFFSET
    fnptr_addr = layout.size_addr + _FNPTR_ADDR_OFFSET

    def train(machine: Machine, receiver: Receiver) -> None:
        # Warm the victim until its priming branches predict taken (the
        # attack run then fetches the jmpi under the all-ones history).
        for _ in range(_WARM_RUNS):
            machine.run(victim)
        # b) poison under the replayed history.  Early runs train the
        # poisoner's own priming branches; the last installs the gadget
        # at the history-folded aliased index.
        poisoner = build_poisoner(layout, victim,
                                  machine.btb.config.entries,
                                  machine.btb.config.shift, _HISTORY_BITS)
        for _ in range(_POISON_RUNS):
            machine.run(poisoner)

    return hijack_attack(
        layout, secret, victim,
        [(fnptr_ptr, fnptr_addr), (fnptr_addr, victim.label_pc("benign"))],
        train, history_bits=_HISTORY_BITS)


run_spectre_v2_bhb = register(
    "spectre_v2_bhb", _attack,
    spec_overrides={"btb.history_bits": _HISTORY_BITS})
