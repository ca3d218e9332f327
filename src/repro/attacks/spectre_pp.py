"""Spectre v1 received through Prime+Probe instead of Flush+Reload.

The paper (Section II-B.1) notes that "cache updates can be detected by
attacker using a range of cache side channel attacks", citing both
flush+reload and prime+probe.  This variant demonstrates that SafeSpec's
protection is channel-agnostic: the defense removes the *transmitter*
(the speculative fill), so the choice of receiver does not matter.

The prime+probe receiver recovers the L1 *set index* of the transmitting
access (6 bits on the Table II L1), not the full byte — matching the
real granularity of prime+probe on a 64-set cache.  The victim is the
Spectre v1 gadget, whose probe array strides by one line (one L1 set)
per value, so the secret is recovered modulo the set count.
"""

from __future__ import annotations

import dataclasses

from repro.attacks.channels import PrimeProbeChannel
from repro.attacks.gadgets import AttackLayout, bounds_check_victim
from repro.attacks.runner import Attack, register
from repro.attacks.spectre_v1 import bounds_check_attack
from repro.machine import Machine

def _attack(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    victim = bounds_check_victim(layout)
    expected_set = machine.hierarchy.l1d.set_index(layout.probe + secret * 64)
    script = bounds_check_attack(
        layout, secret, victim,
        receiver=PrimeProbeChannel,
        secret_slot=expected_set,
        details=lambda run, hot: {
            "hot_sets": hot,
            "expected_set": expected_set,
            "victim_cycles": run.cycles,
        })

    def train(machine: Machine, channel: PrimeProbeChannel) -> None:
        script.train(machine, channel)
        # Calibration: prime, run the victim benignly, record noise sets.
        channel.prime()
        machine.flush_address(layout.size_addr)
        machine.run(victim, initial_registers={1: 1})
        channel.calibrate()
        # Re-prime for the attack round, before the bound is flushed.
        channel.prime()

    return dataclasses.replace(script, train=train)


run_spectre_v1_prime_probe = register("spectre_v1_pp", _attack)
