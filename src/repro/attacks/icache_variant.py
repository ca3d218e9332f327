"""The paper's new I-cache variant of Spectre (Section IV-A, Figure 5).

Instead of a data-dependent *data* access, the gadget performs a
data-dependent *control transfer*: the secret selects which of 256
function slots gets speculatively fetched, leaving the signal in the
instruction cache.  The receiver then times a committed fetch of each
slot.

As in the paper's PoC, the tricky part is that a predicted branch's
I-cache footprint is *not* data dependent (the BTB target is whatever was
trained).  The data-dependent fetch only happens when the in-window
indirect jump *resolves* and redirects the (still speculative) front end
to the secret-selected slot — so the window opened by the flushed bounds
check must be long enough to cover the gadget's resolution, which the
delayed ``array1_size`` load guarantees.

Training uses slot 0 as the benign landing pad (it contains ``halt``;
the other slots hold self-loops that only ever run speculatively), so the
receiver excludes slot 0 and the attack leaks secrets in 1..255.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.attacks.channels import FlushReloadChannel
from repro.attacks.gadgets import AttackLayout, function_table_victim
from repro.attacks.runner import Attack, Receiver, register
from repro.attacks.spectre_v1 import bounds_check_attack
from repro.isa.program import Program
from repro.machine import Machine

_SLOTS = 256
_SLOT_BYTES = 256                       # 16 instructions per function slot


def build_victim(layout: AttackLayout) -> Program:
    """Victim with the Figure-5 gadget and a 256-slot function table."""
    return function_table_victim(layout, _SLOTS, _SLOT_BYTES)


def function_table_attack(layout: AttackLayout, secret: int,
                          victim: Program,
                          receiver: Callable[..., Receiver]) -> Attack:
    """The Spectre v1 steps around a function-table ``victim``, received
    by ``receiver(machine, base=<the table's first slot>)``."""
    fn_base = victim.label_pc("fn_table")
    return bounds_check_attack(
        layout, secret, victim,
        # array1[1] == 0: training lands in slot 0.
        words=[(layout.size_addr, 16), (layout.secret_addr, secret),
               (layout.array1 + 1, 0)],
        receiver=partial(receiver, base=fn_base),
        # Slot 0 is the architecturally trained landing pad: always warm.
        benign={0},
        details=lambda run, hot: {
            "hot_slots": hot,
            "fn_base": fn_base,
            "victim_cycles": run.cycles,
        })


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    return function_table_attack(
        layout, secret, build_victim(layout),
        partial(FlushReloadChannel, slots=_SLOTS, stride=_SLOT_BYTES,
                side="i"))


run_icache_variant = register("icache", _attack)
