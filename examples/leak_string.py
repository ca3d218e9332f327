#!/usr/bin/env python
"""Leak a whole string byte-by-byte with Spectre v1.

Real Spectre PoCs loop the single-byte primitive over a buffer; this
example does the same against the simulated CPU, then shows SafeSpec
(WFC) reducing the recovered buffer to nothing.

Usage::

    python examples/leak_string.py [message]
"""

import sys

from repro import CommitPolicy, Machine
from repro.attacks.channels import FlushReloadChannel
from repro.attacks.gadgets import AttackLayout, warm_lines
from repro.attacks.spectre_v1 import build_victim

DEFAULT_MESSAGE = "SafeSpec!"


def leak_buffer(policy: CommitPolicy, message: bytes) -> bytes:
    layout = AttackLayout()
    machine = Machine(policy=policy)
    layout.map_user_memory(machine)
    machine.write_word(layout.size_addr, 16)
    for index, byte in enumerate(message):
        machine.hierarchy.memory.write_word(
            layout.secret_addr + index * 8, byte)

    victim = build_victim(layout)
    channel = FlushReloadChannel(machine, layout.probe)
    warm_lines(machine,
               [layout.secret_addr + i * 8 for i in range(len(message))],
               code_base=layout.helper_code)

    recovered = bytearray()
    for index in range(len(message)):
        # retrain, flush, attack — one byte per iteration
        for _ in range(4):
            machine.run(victim, initial_registers={1: 1})
        machine.flush_address(layout.size_addr)
        channel.flush()
        offset = (layout.secret_addr + index * 8) - layout.array1
        machine.run(victim, initial_registers={1: offset})
        outcome = channel.probe()
        recovered.append(outcome.value if outcome.value is not None else 0)
    return bytes(recovered)


def printable(data: bytes) -> str:
    return "".join(chr(b) if 32 <= b < 127 else "." for b in data)


def main() -> None:
    message = (sys.argv[1] if len(sys.argv) > 1
               else DEFAULT_MESSAGE).encode()
    for policy in (CommitPolicy.BASELINE, CommitPolicy.WFC):
        recovered = leak_buffer(policy, message)
        status = ("FULL LEAK" if recovered == message else
                  "no leak" if not recovered.strip(b"\0") else "partial")
        print(f"[{policy.value:8s}] planted={printable(message)!r:14} "
              f"recovered={printable(recovered)!r:14} -> {status}")


if __name__ == "__main__":
    main()
