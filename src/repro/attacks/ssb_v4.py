"""Spectre v4: speculative store bypass (speculative store-to-load
forwarding violation).

Under memory-dependence speculation (``core.mem_dep_speculation=true``)
a load may issue past an older store whose *address* has not resolved.
When they alias, the load transiently consumed the stale pre-store
value; the core later detects the conflict and squash-replays the load
— architecturally invisible, micro-architecturally a transmitter:

a) a pointer is loaded through a flushed cell, so the following store's
   address resolves very late;
b) the store overwrites the secret cell with a harmless value;
c) a younger load of the same cell issues first, *bypassing* the store,
   and reads the still-present secret — which indexes the probe array
   before the replay corrects everything to the overwritten value.

No branch is involved anywhere, so like Meltdown this leak is
``branch_free``: WFB's promote-on-branch-resolution promotes the
in-flight accesses (nothing ever blocks them) and leaks; only WFC's
promote-at-commit closes the channel.
"""

from __future__ import annotations

from repro.attacks.gadgets import AttackLayout, read_and_transmit, warm_lines
from repro.attacks.runner import Attack, Receiver, register
from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine


def build_victim(layout: AttackLayout, overwrite: int) -> Program:
    """The store-bypass gadget, branch-free throughout."""
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    b.li("r1", layout.delay1)
    b.load("r2", "r1", 0)              # pointer (flushed) -> secret_addr
    b.li("r3", overwrite)
    b.store("r2", "r3", 0)             # address unresolved for ~DRAM latency
    read_and_transmit(b)               # its load bypasses the store
    return b.build()


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    # The architectural replay re-reads the overwritten value and probes
    # its slot too, so the receiver must tell the two hot lines apart.
    overwrite = (secret + 1) & 0xFF
    victim = build_victim(layout, overwrite)

    def train(machine: Machine, receiver: Receiver) -> None:
        # Warm victim code and translations.  Without this the bypassing
        # load dispatches behind ~200 cycles of cold instruction fetch
        # and the store address resolves before the transmit chain
        # exists.
        for _ in range(2):
            machine.run(victim)
        # Each warm run's store architecturally clobbered the secret
        # cell: restore it in backing memory (flushing first so the stale
        # cached line does not shadow the restore) and re-warm the line.
        machine.flush_address(layout.secret_addr)
        machine.write_word(layout.secret_addr, secret)
        warm_lines(machine, [layout.secret_addr, layout.delay1],
                   code_base=layout.helper_code)

    return Attack(
        program=victim,
        # The pointer cell the store's address depends on.
        words=[(layout.secret_addr, secret),
               (layout.delay1, layout.secret_addr)],
        train=train,
        # Flush the pointer (delays the store address).
        flush=[layout.delay1],
        # The committed (replayed) stream always probes the overwrite
        # slot; any *other* hot slot is the transient bypass leak.
        benign={overwrite},
        details=lambda run, hot: {
            "hot_slots": [slot for slot in hot if slot != overwrite],
            "overwrite_slot": overwrite,
            "replayed_value": run.reg("r4"),
            "victim_cycles": run.cycles,
        })


run_ssb_v4 = register("ssb_v4", _attack, branch_free=True,
                      spec_overrides={"core.mem_dep_speculation": True})
