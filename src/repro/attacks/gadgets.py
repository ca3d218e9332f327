"""Shared attack scaffolding: address-space layout, helper programs and
the gadgets several attacks share.

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
from typing import Iterable, Optional, Tuple

from repro.errors import SimulationError
from repro.isa.assembler import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES
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

    def map_user_memory(self, machine: Machine) -> None:
        """Map everything except the kernel page as user memory."""
        machine.map_user_range(self.array1, PAGE)
        machine.map_user_range(self.size_addr, PAGE)
        machine.map_user_range(self.secret_addr, PAGE)
        machine.map_user_range(self.probe, 256 * 64)
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



def bounds_check_victim(layout: AttackLayout, probe: Optional[int] = None,
                        shift: int = 6) -> Program:
    """The Spectre v1 gadget; the offset arrives in r1 (attacker input)::

        if (offset < array1_size)
            y = probe[array1[offset] << shift];

    ``probe`` defaults to the layout's probe array and ``shift`` to one
    cache line per value; the dTLB variant strides by pages instead.
    """
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr)
    b.load("r3", "r2", 0)                 # array1_size (flushed by attacker)
    b.li("r8", layout.array1)
    b.li("r9", layout.probe if probe is None else probe)
    b.branch("ge", "r1", "r3", "skip")    # the bounds check
    b.add("r10", "r8", "r1")
    b.load("r4", "r10", 0)                # array1[offset] -> secret when OOB
    b.alu("shl", "r5", "r4", imm=shift)   # one probe slot per value
    b.add("r11", "r9", "r5")
    b.load("r6", "r11", 0)                # transmit
    b.label("skip")
    b.halt()
    return b.build()


def function_table_victim(layout: AttackLayout, slots: int,
                          slot_bytes: int) -> Program:
    """The Figure-5 gadget: the secret selects which of ``slots``
    function slots, ``slot_bytes`` apart, an indirect jump targets.

    Slot 0 (``halt``) is the benign training landing pad; every other
    slot is a self-loop that only ever runs speculatively, pinning the
    speculative fetch to its own line and page.
    """
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr)
    b.load("r3", "r2", 0)                   # flushed bound -> window
    b.li("r8", layout.array1)
    b.branch("ge", "r1", "r3", "skip")      # bounds check
    b.add("r10", "r8", "r1")
    b.load("r4", "r10", 0)                  # secret
    b.alu("shl", "r5", "r4", imm=slot_bytes.bit_length() - 1)
    b.la("r9", "fn_table")
    b.add("r11", "r9", "r5")
    b.jmpi("r11")                           # data-dependent control flow
    b.label("skip")
    b.halt()
    while (layout.victim_code + b.here() * INSTRUCTION_BYTES) % slot_bytes:
        b.nop()
    b.label("fn_table")
    for slot in range(slots):
        b.label(f"fn{slot}")
        if slot == 0:
            b.halt()
        else:
            b.jmp(f"fn{slot}")
        b.nop(slot_bytes // INSTRUCTION_BYTES - 1)
    b.halt()
    return b.build()


def read_and_transmit(b: ProgramBuilder) -> None:
    """The gadget body: read the secret at r10, load the probe-array
    (r9) line it selects, one line per value, and halt."""
    b.load("r4", "r10", 0)             # secret
    b.alu("shl", "r5", "r4", imm=6)
    b.add("r11", "r9", "r5")
    b.load("r6", "r11", 0)             # transmit
    b.halt()


def prime_history(b: ProgramBuilder, prefix: str, branches: int) -> None:
    """``branches`` always-taken branches: a deterministic all-ones BHB."""
    for k in range(branches):
        b.branch("eq", "r0", "r0", f"{prefix}{k}")
        b.label(f"{prefix}{k}")


def indirect_jump_pc(victim: Program) -> int:
    """PC of the victim's (first) indirect jump."""
    for index, inst in enumerate(victim.instructions):
        if inst.is_indirect:
            return victim.pc_of(index)
    raise SimulationError("victim has no indirect jump")


def build_poisoner(layout: AttackLayout, victim: Program,
                   btb_entries: int, btb_shift: int,
                   history_bits: int = 0) -> Program:
    """Attacker program whose indirect jump aliases the victim's in the
    BTB, with the victim's ``gadget`` as its target.

    The attacker pads with NOPs so its ``jmpi`` lands at the victim's
    offset-within-period, where the BTB's base indices collide.  With
    ``history_bits`` the ``jmpi`` is preceded by that many taken
    branches, replaying the victim's all-ones BHB so the history-folded
    indices collide too.
    """
    victim_pc = indirect_jump_pc(victim)
    period = btb_entries << btb_shift  # PCs repeat BTB indices with this
    base = layout.attacker_code - (layout.attacker_code % period)
    base += victim_pc - (victim_pc % period)
    while base <= layout.victim_code + victim.code_bytes:
        base += period
    # Place the jmpi at exactly the same offset-within-period.
    jmpi_pc = base + (victim_pc % period)
    pad_instructions = ((jmpi_pc - base) // INSTRUCTION_BYTES
                        - 1 - history_bits)
    if pad_instructions < 0:
        raise SimulationError("poisoner does not fit before its jmpi")
    b = ProgramBuilder(code_base=base)
    b.li("r1", victim.label_pc("gadget"))  # poisoned target
    b.nop(pad_instructions)
    prime_history(b, "q", history_bits)
    b.jmpi("r1")
    b.halt()
    program = b.build()
    if program.pc_of(pad_instructions + 1 + history_bits) != jmpi_pc:
        raise SimulationError("poisoner jmpi misaligned")
    return program
