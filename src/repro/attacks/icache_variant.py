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


from repro.attacks.channels import IcacheReloadChannel
from repro.attacks.gadgets import AttackLayout, warm_lines
from repro.api.registry import register_attack
from repro.attacks.runner import AttackResult
from repro.core.policy import CommitPolicy
from repro.isa.assembler import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.program import Program
from repro.machine import Machine
from repro.spec import MachineSpec

_SLOTS = 256
_SLOT_BYTES = 256                       # 16 instructions per function slot
_SLOT_INSTRUCTIONS = _SLOT_BYTES // INSTRUCTION_BYTES
_TRAINING_RUNS = 6


def build_victim(layout: AttackLayout) -> Program:
    """Victim with the Figure-5 gadget and a 256-slot function table."""
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr)
    b.load("r3", "r2", 0)                   # flushed bound -> window
    b.li("r8", layout.array1)
    b.branch("ge", "r1", "r3", "skip")      # bounds check
    b.add("r10", "r8", "r1")
    b.load("r4", "r10", 0)                  # secret
    b.alu("shl", "r5", "r4", imm=8)         # * slot bytes (256)
    b.la("r9", "fn_table")
    b.add("r11", "r9", "r5")
    b.jmpi("r11")                           # data-dependent control flow
    b.label("skip")
    b.halt()
    # Pad to a slot-aligned function table.
    while (b.here() * INSTRUCTION_BYTES) % _SLOT_BYTES:
        b.nop()
    b.label("fn_table")
    for slot in range(_SLOTS):
        b.label(f"fn{slot}")
        if slot == 0:
            # Benign training landing pad: terminates architecturally.
            b.halt()
            b.nop(_SLOT_INSTRUCTIONS - 1)
        else:
            # A self-loop: pins speculative fetch to this slot's page/line.
            b.jmp(f"fn{slot}")
            b.nop(_SLOT_INSTRUCTIONS - 1)
    b.halt()
    return b.build()


@register_attack("icache")
def run_icache_variant(policy: CommitPolicy, secret: int = 42,
                       spec: MachineSpec = MachineSpec(),
                       backend: str = "cycle") -> AttackResult:
    """Run the I-cache Spectre variant under the given commit policy."""
    if not 1 <= secret <= 255:
        raise ValueError(
            f"secret must be in 1..255 (slot 0 is the training pad), "
            f"got {secret}")
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    machine.write_word(layout.size_addr, 16)
    machine.write_word(layout.secret_addr, secret)
    machine.write_word(layout.array1 + 1, 0)   # training lands in slot 0

    victim = build_victim(layout)
    fn_base = victim.label_pc("fn_table")
    channel = IcacheReloadChannel(machine, fn_base, slots=_SLOTS,
                                  stride=_SLOT_BYTES)

    warm_lines(machine, [layout.secret_addr], code_base=layout.helper_code)
    for _ in range(_TRAINING_RUNS):
        machine.run(victim, initial_registers={1: 1})

    machine.flush_address(layout.size_addr)
    channel.flush()

    malicious_offset = layout.secret_addr - layout.array1
    run = machine.run(victim, initial_registers={1: malicious_offset})

    outcome = channel.reload()
    # Slot 0 is the architecturally trained landing pad: always warm.
    hot = [slot for slot in outcome.hot_slots if slot != 0]
    leaked = hot[0] if len(hot) == 1 else None
    return AttackResult(
        attack="icache",
        policy=policy,
        secret=secret,
        leaked=leaked,
        details={
            "hot_slots": outcome.hot_slots,
            "fn_base": fn_base,
            "victim_cycles": run.cycles,
        },
    )
