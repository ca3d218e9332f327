"""Spectre variant 1: bounds-check bypass (paper Section II-B.2).

The victim gadget is the classic two-load sequence::

    if (offset < array1_size)
        y = array2[array1[offset] * 64];

The attack proceeds exactly as the paper describes:

a) train the branch predictor with in-bounds offsets so the bounds check
   predicts "in bounds";
b) flush ``array1_size`` so the check's resolution is delayed, opening a
   large speculation window;
c) call the victim with a malicious out-of-bounds offset that makes
   ``array1[offset]`` alias the secret; the transmitting load deposits a
   secret-indexed line in the cache (baseline) or the shadow (SafeSpec);
d) flush+reload the probe array to recover the secret.
"""

from __future__ import annotations

import dataclasses

from repro.attacks.gadgets import AttackLayout, bounds_check_victim
from repro.attacks.runner import Attack, mistrain, register
from repro.isa.program import Program
from repro.machine import Machine

_TRAINING_RUNS = 6
_IN_BOUNDS_OFFSET = 1

build_victim = bounds_check_victim    # the victim, by its usual name


def bounds_check_attack(layout: AttackLayout, secret: int, victim: Program,
                        **changes: object) -> Attack:
    """Steps a)-c) around ``victim``, a bounds-check gadget taking its
    offset in r1, with the ``changes`` the caller's variant makes.

    The Prime+Probe, I-cache and TLB variants share these steps.
    """
    return dataclasses.replace(Attack(
        program=victim,
        words=[(layout.size_addr, 16), (layout.secret_addr, secret)],
        # The victim has touched its own secret recently (it is the
        # victim's working data), so the in-window secret read is an L1
        # hit.
        warm=[layout.secret_addr],
        # a) mistrain the bounds check
        train=mistrain(victim, _TRAINING_RUNS,
                       initial_registers={1: _IN_BOUNDS_OFFSET}),
        # b) flush the bound (and the receiver its probe array)
        flush=[layout.size_addr],
        # c) malicious call: offset aliases array1[offset] onto the secret
        registers={1: layout.secret_addr - layout.array1},
        details=lambda run, hot: {
            "hot_slots": hot,
            "victim_cycles": run.cycles,
        }), **changes)


def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    return bounds_check_attack(
        layout, secret, build_victim(layout),
        details=lambda run, hot: {
            "hot_slots": hot,
            "victim_cycles": run.cycles,
            "mispredicts": run.counters.get("core.mispredicts", 0),
        })


run_spectre_v1 = register("spectre_v1", _attack)
