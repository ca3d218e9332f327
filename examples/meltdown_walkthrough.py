#!/usr/bin/env python
"""Meltdown, step by step, on the simulated CPU.

This walks through the full attack against each commit policy and
narrates what happens at the micro-architectural level, showing why
WFB's promote-on-branch-resolution rule is not enough to stop Meltdown
while WFC's promote-at-commit rule is.

Usage::

    python examples/meltdown_walkthrough.py
"""

from repro import CommitPolicy
from repro.attacks.channels import FlushReloadChannel
from repro.attacks.gadgets import AttackLayout, PAGE, warm_lines
from repro.attacks.meltdown import build_attacker
from repro.machine import Machine
from repro.memory.paging import PrivilegeLevel

SECRET = 0x5A


def run_walkthrough(policy: CommitPolicy) -> None:
    print(f"=== {policy.value.upper()} ===")
    layout = AttackLayout()
    machine = Machine(policy=policy)
    layout.map_user_memory(machine)
    layout.map_kernel_memory(machine)
    machine.hierarchy.memory.write_word(layout.kernel, SECRET)
    print(f"1. planted secret {SECRET:#x} at supervisor-only address "
          f"{layout.kernel:#x}")

    warm_lines(machine, [layout.kernel], code_base=layout.helper_code,
               privilege=PrivilegeLevel.SUPERVISOR)
    print("2. kernel touched the secret (supervisor access, line now hot)")

    attacker = build_attacker(layout)
    handler_pc = attacker.label_pc("handler")
    machine.run(attacker, fault_handler_pc=handler_pc)
    warm_lines(machine, [layout.probe + page * PAGE for page in range(4)],
               code_base=layout.helper_code)
    print("3. attacker warmed its own code and probe translations")

    channel = FlushReloadChannel(machine, layout.probe)
    machine.flush_address(layout.delay1)
    machine.flush_address(layout.delay2)
    channel.flush()
    print("4. attacker flushed the retirement-delay words and the probe "
          "array")

    result = machine.run(attacker, fault_handler_pc=handler_pc)
    fault = result.fault_events[0]
    print(f"5. attack ran: the kernel load raised a {fault.kind} fault at "
          f"cycle {fault.cycle} (commit time), long after the dependent "
          f"transmit load executed")

    outcome = channel.probe()
    if outcome.value is not None:
        print(f"6. flush+reload recovered {outcome.value:#x} -> "
              f"{'SECRET LEAKED' if outcome.value == SECRET else 'noise'}")
    else:
        print("6. flush+reload found no hot probe line -> leak closed")
    print()


def main() -> None:
    for policy in (CommitPolicy.BASELINE, CommitPolicy.WFB,
                   CommitPolicy.WFC):
        run_walkthrough(policy)
    print("Summary: BASELINE and WFB leak (the faulting load has no "
          "branch dependence, so WFB promotes the transmit line before "
          "the fault squashes); WFC holds everything in shadow until "
          "commit, which never comes.")


if __name__ == "__main__":
    main()
