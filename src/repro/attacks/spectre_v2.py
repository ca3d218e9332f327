"""Spectre variant 2: branch target injection (paper Section II-B.3).

The victim makes an indirect jump through a function pointer.  The
attacker:

a) runs on the same core, sharing the (untagged, partially indexed) BTB;
b) executes its *own* indirect branch at a virtual address that collides
   with the victim's in the BTB index, with the victim's gadget address
   as the target — poisoning the shared entry;
c) flushes the victim's function pointer so the indirect jump resolves
   late, opening the speculation window;
d) triggers the victim: the poisoned BTB redirects speculative execution
   into the gadget, which reads the secret and transmits it through the
   probe array.

The attacker's and victim's branch PCs differ (different "processes" /
code regions) but alias in the BTB — exactly the collision mechanism of
the paper's reference [5].
"""

from __future__ import annotations


from repro.attacks.channels import FlushReloadChannel
from repro.attacks.gadgets import AttackLayout, warm_lines
from repro.api.registry import register_attack
from repro.attacks.runner import AttackResult
from repro.core.policy import CommitPolicy
from repro.errors import SimulationError
from repro.isa.assembler import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.program import Program
from repro.machine import Machine
from repro.spec import MachineSpec

_FNPTR_ADDR_OFFSET = 0x800  # function pointer lives in the size page


def build_victim(layout: AttackLayout) -> Program:
    """Victim: loads a function pointer and jumps through it.

    The gadget (secret read + transmit) exists in the victim's code but
    is never architecturally reached — the legitimate target is
    ``benign``.
    """
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr + _FNPTR_ADDR_OFFSET)
    b.load("r1", "r2", 0)              # function pointer (flushed)
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    b.jmpi("r1")                       # the hijacked indirect jump
    b.label("benign")
    b.halt()
    b.label("gadget")
    b.load("r4", "r10", 0)             # secret
    b.alu("shl", "r5", "r4", imm=6)
    b.add("r11", "r9", "r5")
    b.load("r6", "r11", 0)             # transmit
    b.halt()
    return b.build()


def _victim_jmpi_pc(victim: Program) -> int:
    for index, inst in enumerate(victim.instructions):
        if inst.is_indirect:
            return victim.pc_of(index)
    raise SimulationError("victim has no indirect jump")


def build_poisoner(layout: AttackLayout, victim: Program,
                   btb_entries: int, btb_shift: int) -> Program:
    """Attacker program whose indirect jump aliases the victim's.

    The attacker pads with NOPs so its ``jmpi`` lands at a PC that
    collides with the victim's ``jmpi`` in the BTB index.
    """
    victim_pc = _victim_jmpi_pc(victim)
    period = btb_entries << btb_shift  # PCs repeat BTB indices with this
    base = layout.attacker_code - (layout.attacker_code % period)
    base += victim_pc - (victim_pc % period)
    while base <= layout.victim_code + victim.code_bytes:
        base += period
    # Place the jmpi at exactly the same offset-within-period.
    jmpi_pc = base + (victim_pc % period)
    b = ProgramBuilder(code_base=base)
    pad_instructions = (jmpi_pc - base) // INSTRUCTION_BYTES - 1
    b.li("r1", victim.label_pc("gadget"))  # poisoned target
    b.nop(max(pad_instructions, 0))
    b.jmpi("r1")
    b.halt()
    program = b.build()
    if program.pc_of(pad_instructions + 1) != jmpi_pc:
        raise SimulationError("poisoner jmpi misaligned")
    return program


@register_attack("spectre_v2")
def run_spectre_v2(policy: CommitPolicy, secret: int = 42,
                   spec: MachineSpec = MachineSpec(),
                   backend: str = "cycle") -> AttackResult:
    """Run the full Spectre v2 attack under the given commit policy."""
    if not 0 <= secret <= 255:
        raise ValueError(f"secret must be a byte, got {secret}")
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    machine.write_word(layout.secret_addr, secret)

    victim = build_victim(layout)
    fnptr_addr = layout.size_addr + _FNPTR_ADDR_OFFSET
    machine.write_word(fnptr_addr, victim.label_pc("benign"))
    channel = FlushReloadChannel(machine, layout.probe)

    # Victim working set is warm (it uses its secret and pointer).
    warm_lines(machine, [layout.secret_addr, fnptr_addr],
               code_base=layout.helper_code)

    # Warm victim code/BTB with legitimate executions.
    for _ in range(2):
        machine.run(victim)

    # b) poison: the attacker's colliding jmpi installs the gadget target.
    poisoner = build_poisoner(layout, victim,
                              machine.btb.config.entries,
                              machine.btb.config.shift)
    machine.run(poisoner)
    victim_pc = _victim_jmpi_pc(victim)
    poisoned_target = machine.btb.predict_target(victim_pc)

    # c) flush the function pointer and the probe array.
    machine.flush_address(fnptr_addr)
    channel.flush()

    # d) trigger the victim.
    run = machine.run(victim)

    outcome = channel.reload()
    return AttackResult(
        attack="spectre_v2",
        policy=policy,
        secret=secret,
        leaked=outcome.value,
        details={
            "hot_slots": outcome.hot_slots,
            "poisoned_target": poisoned_target,
            "gadget_pc": victim.label_pc("gadget"),
            "victim_cycles": run.cycles,
        },
    )
