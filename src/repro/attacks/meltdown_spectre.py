"""Meltdown combined with Spectre v1 (paper Section II-B.4).

"Alternatively, if the attacker can arbitrarily control the exploit
code, she can also avoid the exception by putting the gadget behind a
mispredicted branch, i.e., combining Spectre V1 with Meltdown to read
memory across privilege domains in the same virtual address space."

The kernel read and the transmit sit on the *wrong path* of a mistrained
bounds check, so the permission fault never reaches commit — no signal
handler gymnastics needed.  The flip side of avoiding the fault is that
the attack now depends on a branch misprediction, so (unlike plain
Meltdown) it is closed by **WFB as well as WFC** — a nice confirmation
of the paper's taxonomy: WFB stops everything that needs a mispredicted
branch, WFC additionally stops fault-deferred leaks.
"""

from __future__ import annotations


from repro.attacks.channels import FlushReloadChannel
from repro.attacks.gadgets import AttackLayout, warm_lines
from repro.api.registry import register_attack
from repro.attacks.runner import AttackResult
from repro.core.policy import CommitPolicy
from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine
from repro.spec import MachineSpec
from repro.memory.paging import PrivilegeLevel

_TRAINING_RUNS = 6


def build_attacker(layout: AttackLayout) -> Program:
    """Bounds-check-guarded kernel read (offset arrives in r1)."""
    b = ProgramBuilder(code_base=layout.attacker_code)
    b.li("r2", layout.size_addr)
    b.load("r3", "r2", 0)              # flushed bound -> window
    b.li("r9", layout.probe)
    b.branch("ge", "r1", "r3", "skip")
    # wrong path in the attack run: the illegal read + transmit
    b.li("r8", layout.kernel)
    b.load("r4", "r8", 0)              # kernel secret, never commits
    b.alu("shl", "r5", "r4", imm=6)
    b.add("r10", "r9", "r5")
    b.load("r6", "r10", 0)             # transmit
    b.label("skip")
    b.halt()
    return b.build()


@register_attack("meltdown_spectre")
def run_meltdown_spectre(policy: CommitPolicy, secret: int = 42,
                         spec: MachineSpec = MachineSpec(),
                         backend: str = "cycle") -> AttackResult:
    """Run the combined Meltdown+Spectre attack under ``policy``."""
    if not 0 <= secret <= 255:
        raise ValueError(f"secret must be a byte, got {secret}")
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    layout.map_kernel_memory(machine)
    machine.write_word(layout.size_addr, 16)
    machine.hierarchy.memory.write_word(layout.kernel, secret)

    attacker = build_attacker(layout)
    channel = FlushReloadChannel(machine, layout.probe)

    # The kernel recently used the secret (supervisor access warms it).
    warm_lines(machine, [layout.kernel], code_base=layout.helper_code,
               privilege=PrivilegeLevel.SUPERVISOR)

    # Mistrain the bounds check toward not-taken.  With an in-bounds
    # offset the gadget body executes architecturally, so each training
    # run faults on the kernel read and recovers through the handler —
    # exactly how real Meltdown attack loops behave (and also how the
    # attacker's code lines get warm).
    for _ in range(_TRAINING_RUNS):
        machine.run(attacker, initial_registers={1: 0},
                    fault_handler_pc=attacker.label_pc("skip"))

    machine.flush_address(layout.size_addr)
    channel.flush()

    # Attack run: offset >= bound, so the branch is *actually* taken and
    # the gadget runs purely speculatively; the stale not-taken
    # prediction opens the window, the squash swallows the fault.
    run = machine.run(attacker, initial_registers={1: 64},
                      fault_handler_pc=attacker.label_pc("skip"))

    outcome = channel.reload()
    return AttackResult(
        attack="meltdown_spectre",
        policy=policy,
        secret=secret,
        leaked=outcome.value,
        details={
            "hot_slots": outcome.hot_slots,
            "attack_run_faults": [e.kind for e in run.fault_events],
            "victim_cycles": run.cycles,
        },
    )
