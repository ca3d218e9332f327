"""TLB variants of Spectre (paper Section IV-A, "TLBs").

The data-dependent access targets a *page* rather than a cache line: the
secret selects which TLB entry gets speculatively installed.  The
receiver times the translation of each candidate page — a 1-cycle TLB hit
versus a multi-access page walk.

* **dTLB variant** — the transmitting instruction is a load whose address
  strides by the page size.
* **iTLB variant** — the transmitting instruction is a data-dependent
  indirect jump into a page-strided function table (the I-cache gadget
  with page-sized slots), installing an iTLB entry for the selected code
  page.

Both use 64 slots (one secret value per page); the iTLB variant's slot 0
is the architectural training pad, so its secrets live in 1..63.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.api.registry import register_attack
from repro.attacks.channels import TlbProbeChannel
from repro.attacks.gadgets import (AttackLayout, PAGE, bounds_check_victim,
                                   function_table_victim)
from repro.attacks.runner import Attack, AttackResult, run_attack
from repro.attacks.icache_variant import function_table_attack
from repro.attacks.spectre_v1 import bounds_check_attack
from repro.core.policy import CommitPolicy
from repro.isa.program import Program
from repro.machine import Machine
from repro.spec import MachineSpec

_SLOTS = 64
_TLB_PROBE_BASE = 0x1_00_0000          # 64 user pages, never touched


def build_itlb_victim(layout: AttackLayout) -> Program:
    """Gadget with a page-strided function table (iTLB transmitter)."""
    return function_table_victim(layout, _SLOTS, PAGE)


def _itlb(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    return function_table_attack(
        layout, secret, build_itlb_victim(layout),
        partial(TlbProbeChannel, slots=_SLOTS, side="i"))


def _dtlb(machine: Machine, layout: AttackLayout, secret: int) -> Attack:
    # The transmit load strides by pages, filling one dTLB entry.
    # Training runs architecturally execute it with array1[1] == 0,
    # warming probe page 0's translation.
    victim = bounds_check_victim(layout, probe=_TLB_PROBE_BASE, shift=12)
    return bounds_check_attack(
        layout, secret, victim,
        maps=[(_TLB_PROBE_BASE, _SLOTS * PAGE)],
        receiver=partial(TlbProbeChannel, base=_TLB_PROBE_BASE,
                         slots=_SLOTS, side="d"),
        benign={0})


def _register(name: str,
              describe: Callable[[Machine, AttackLayout, int], Attack]
              ) -> Callable[..., AttackResult]:
    """Register a TLB variant, whose secret is taken modulo the 64 slots
    with 0 made 1, and return its entry point."""
    @register_attack(name)
    def entry(policy: CommitPolicy, secret: int = 42,
              spec: MachineSpec = MachineSpec(),
              backend: str = "cycle") -> AttackResult:
        return run_attack(name, describe, policy, secret % _SLOTS or 1,
                          spec, backend)
    entry.__doc__ = f"Run the {name} Spectre variant under the given policy."
    return entry


run_itlb_variant = _register("itlb", _itlb)
run_dtlb_variant = _register("dtlb", _dtlb)
