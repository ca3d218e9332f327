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


from repro.attacks.channels import TlbProbeChannel
from repro.attacks.gadgets import AttackLayout, PAGE, warm_lines
from repro.api.registry import register_attack
from repro.attacks.runner import AttackResult
from repro.core.policy import CommitPolicy
from repro.isa.assembler import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.program import Program
from repro.machine import Machine
from repro.spec import MachineSpec

_SLOTS = 64
_TLB_PROBE_BASE = 0x1_00_0000          # 64 user pages, never touched
_SLOT_INSTRUCTIONS = PAGE // INSTRUCTION_BYTES
_TRAINING_RUNS = 6


# ---------------------------------------------------------------------------
# dTLB variant
# ---------------------------------------------------------------------------

def build_dtlb_victim(layout: AttackLayout) -> Program:
    """Bounds-check-bypass gadget whose transmit load strides by pages."""
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr)
    b.load("r3", "r2", 0)                  # flushed bound
    b.li("r8", layout.array1)
    b.li("r9", _TLB_PROBE_BASE)
    b.branch("ge", "r1", "r3", "skip")
    b.add("r10", "r8", "r1")
    b.load("r4", "r10", 0)                 # secret
    b.alu("shl", "r5", "r4", imm=12)       # * PAGE
    b.add("r11", "r9", "r5")
    b.load("r6", "r11", 0)                 # transmit: fills one dTLB entry
    b.label("skip")
    b.halt()
    return b.build()


def run_dtlb_variant(policy: CommitPolicy, secret: int = 42,
                     spec: MachineSpec = MachineSpec(),
                     backend: str = "cycle") -> AttackResult:
    """Run the dTLB Spectre variant under the given commit policy.

    Training runs architecturally execute the transmit with
    ``array1[1] == 0``, warming probe page 0's translation, so the
    receiver excludes slot 0 and secrets live in 1..63.
    """
    secret = secret % _SLOTS
    if secret == 0:
        secret = 1
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    machine.map_user_range(_TLB_PROBE_BASE, _SLOTS * PAGE)
    machine.write_word(layout.size_addr, 16)
    machine.write_word(layout.secret_addr, secret)

    victim = build_dtlb_victim(layout)
    channel = TlbProbeChannel(machine, _TLB_PROBE_BASE, slots=_SLOTS,
                              side="d")

    warm_lines(machine, [layout.secret_addr], code_base=layout.helper_code)
    for _ in range(_TRAINING_RUNS):
        machine.run(victim, initial_registers={1: 1})

    machine.flush_address(layout.size_addr)
    malicious_offset = layout.secret_addr - layout.array1
    run = machine.run(victim, initial_registers={1: malicious_offset})

    outcome = channel.reload()
    hot = [slot for slot in outcome.hot_slots if slot != 0]
    leaked = hot[0] if len(hot) == 1 else None
    return AttackResult(
        attack="dtlb",
        policy=policy,
        secret=secret,
        leaked=leaked,
        details={
            "hot_slots": outcome.hot_slots,
            "victim_cycles": run.cycles,
        },
    )


# ---------------------------------------------------------------------------
# iTLB variant
# ---------------------------------------------------------------------------

def build_itlb_victim(layout: AttackLayout) -> Program:
    """Gadget with a page-strided function table (iTLB transmitter)."""
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr)
    b.load("r3", "r2", 0)
    b.li("r8", layout.array1)
    b.branch("ge", "r1", "r3", "skip")
    b.add("r10", "r8", "r1")
    b.load("r4", "r10", 0)                 # secret
    b.alu("shl", "r5", "r4", imm=12)       # * PAGE per slot
    b.la("r9", "fn_table")
    b.add("r11", "r9", "r5")
    b.jmpi("r11")
    b.label("skip")
    b.halt()
    while (b.here() * INSTRUCTION_BYTES + layout.victim_code) % PAGE:
        b.nop()
    b.label("fn_table")
    for slot in range(_SLOTS):
        b.label(f"fn{slot}")
        if slot == 0:
            b.halt()
        else:
            b.jmp(f"fn{slot}")
        b.nop(_SLOT_INSTRUCTIONS - 1)
    b.halt()
    return b.build()


@register_attack("itlb")
def run_itlb_variant(policy: CommitPolicy, secret: int = 42,
                     spec: MachineSpec = MachineSpec(),
                     backend: str = "cycle") -> AttackResult:
    """Run the iTLB Spectre variant under the given commit policy."""
    secret = secret % _SLOTS
    if secret == 0:
        secret = 1  # slot 0 is the training pad
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    machine.write_word(layout.size_addr, 16)
    machine.write_word(layout.secret_addr, secret)
    machine.write_word(layout.array1 + 1, 0)   # training lands in slot 0

    victim = build_itlb_victim(layout)
    fn_base = victim.label_pc("fn_table")
    channel = TlbProbeChannel(machine, fn_base, slots=_SLOTS, side="i")

    warm_lines(machine, [layout.secret_addr], code_base=layout.helper_code)
    for _ in range(_TRAINING_RUNS):
        machine.run(victim, initial_registers={1: 1})

    machine.flush_address(layout.size_addr)
    malicious_offset = layout.secret_addr - layout.array1
    run = machine.run(victim, initial_registers={1: malicious_offset})

    outcome = channel.reload()
    hot = [slot for slot in outcome.hot_slots if slot != 0]
    leaked = hot[0] if len(hot) == 1 else None
    return AttackResult(
        attack="itlb",
        policy=policy,
        secret=secret,
        leaked=leaked,
        details={
            "hot_slots": outcome.hot_slots,
            "fn_base": fn_base,
            "victim_cycles": run.cycles,
        },
    )


# Registered after the iTLB variant (despite being defined first) so the
# registry preserves the paper's Table IV row order: itlb, then dtlb.
register_attack("dtlb")(run_dtlb_variant)
