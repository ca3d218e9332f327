"""Shared attack scaffolding: address-space layout and helper programs.

Every attack uses the same basic layout so the PoCs stay readable:

========== ==================================================
``ARRAY1``   victim array the bounds check guards
``SIZE``     location of ``array1_size`` (flushable)
``SECRET``   the value the attacker must not learn
``PROBE``    probe array (flush+reload transmitter target)
``DELAY``    flushable words used to stretch speculation windows
========== ==================================================
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine
from repro.memory.paging import PrivilegeLevel

PAGE = 4096


@dataclass(frozen=True)
class AttackLayout:
    """Virtual-address layout shared by the attack PoCs."""

    victim_code: int = 0x1_000
    attacker_code: int = 0x40_000
    helper_code: int = 0x60_000
    array1: int = 0x10_0000
    size_addr: int = 0x10_1000
    secret_addr: int = 0x10_2000
    probe: int = 0x20_0000
    delay1: int = 0x30_0000
    delay2: int = 0x30_1000
    kernel: int = 0x80_0000

    def map_user_memory(self, machine: Machine,
                        probe_bytes: int = 256 * 64) -> None:
        """Map everything except the kernel page as user memory."""
        machine.map_user_range(self.array1, PAGE)
        machine.map_user_range(self.size_addr, PAGE)
        machine.map_user_range(self.secret_addr, PAGE)
        machine.map_user_range(self.probe, probe_bytes)
        machine.map_user_range(self.delay1, PAGE)
        machine.map_user_range(self.delay2, PAGE)

    def map_kernel_memory(self, machine: Machine) -> None:
        machine.map_kernel_range(self.kernel, PAGE)


def warm_lines(machine: Machine, addresses: Iterable[int],
               code_base: int = 0x70_000,
               privilege: PrivilegeLevel = PrivilegeLevel.USER,
               serialized: bool = False) -> None:
    """Run a throwaway program that loads each address once.

    This is the attacker/victim "recently used this memory" primitive: it
    warms the data lines, the dTLB entries, and the page-table lines of
    the given addresses through fully architectural (committed) accesses.

    ``serialized`` inserts a fence after every load so at most one load
    is in flight.  Use it when the machine's shadow structures are tiny
    (TSA experiments): an unserialized burst would overflow the shadow
    and silently drop some of the warming state.
    """
    program = _warm_program(tuple(addresses), code_base, serialized)
    machine.run(program, privilege=privilege)


@functools.lru_cache(maxsize=16)
def _warm_program(addresses: Tuple[int, ...], code_base: int,
                  serialized: bool) -> Program:
    """The assembled :func:`warm_lines` program, built once per key.

    The attacks call :func:`warm_lines` again and again with the same
    few address lists: the full attack matrix on both backends makes
    106 calls for 10 distinct programs, the largest the
    1,025-instruction Prime+Probe prime.  A :class:`Program` is
    immutable and holds no machine, so one instance serves every run.
    """
    builder = ProgramBuilder(code_base=code_base)
    for address in addresses:
        builder.li("r1", address)
        builder.load("r2", "r1", 0)
        if serialized:
            builder.fence()
    builder.halt()
    return builder.build()

