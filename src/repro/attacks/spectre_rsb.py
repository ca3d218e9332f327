"""SpectreRSB: return-address injection through the shared RSB.

The return stack buffer predicts ``ret`` targets and — like the BTB —
is untagged and shared across execution contexts.  The attacker:

a) executes a ``call`` whose *fall-through address aliases the victim's
   gadget* — the call pushes that address onto the shared RSB and
   returns harmlessly inside the attacker's own code;
b) flushes the memory word holding the victim's return pointer so the
   victim's ``ret`` resolves late, opening the speculation window;
c) triggers the victim: its ``ret`` pops the stale attacker-planted
   entry and speculative fetch dives into the gadget, which reads the
   secret and transmits it through the probe array, while the
   architectural return goes to the benign target.

This is the cross-context variant of Koruyeh et al.'s "Spectre Returns"
— same transient window as Spectre v2, different injection structure
(no BTB involvement: returns are never BTB-installed).
"""

from __future__ import annotations


from repro.attacks.channels import FlushReloadChannel
from repro.attacks.gadgets import AttackLayout, warm_lines
from repro.api.registry import register_attack
from repro.attacks.runner import AttackResult
from repro.core.policy import CommitPolicy
from repro.isa.assembler import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.program import Program
from repro.machine import Machine
from repro.spec import MachineSpec

_RETPTR_ADDR_OFFSET = 0x808  # return pointer lives in the size page


def build_victim(layout: AttackLayout) -> Program:
    """Victim: loads a return pointer and returns through it.

    The gadget exists in the victim's code but is never architecturally
    reached — the legitimate return target is ``benign``, which is also
    the ``ret``'s fall-through, so an *unpoisoned* (empty-RSB) run
    speculates harmlessly.
    """
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r2", layout.size_addr + _RETPTR_ADDR_OFFSET)
    b.load("r7", "r2", 0)              # return pointer (flushed)
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    b.ret("r7")                        # RSB-predicted, attacker-steered
    b.label("benign")
    b.halt()
    b.label("gadget")
    b.load("r4", "r10", 0)             # secret
    b.alu("shl", "r5", "r4", imm=6)
    b.add("r11", "r9", "r5")
    b.load("r6", "r11", 0)             # transmit
    b.halt()
    return b.build()


def build_pusher(gadget_pc: int) -> Program:
    """Attacker program whose ``call`` plants ``gadget_pc`` in the RSB.

    A call at ``gadget_pc - 16`` pushes its fall-through — exactly the
    victim's gadget address — then returns into the attacker's own halt.
    The attacker never touches victim code or data; the RSB entry is the
    whole exploit.
    """
    b = ProgramBuilder(code_base=gadget_pc - INSTRUCTION_BYTES)
    b.call("r1", "after")
    b.label("after")
    b.halt()
    return b.build()


@register_attack("spectre_rsb")
def run_spectre_rsb(policy: CommitPolicy, secret: int = 42,
                    spec: MachineSpec = MachineSpec(),
                    backend: str = "cycle") -> AttackResult:
    """Run the full SpectreRSB attack under the given commit policy."""
    if not 0 <= secret <= 255:
        raise ValueError(f"secret must be a byte, got {secret}")
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    machine.write_word(layout.secret_addr, secret)

    victim = build_victim(layout)
    retptr_addr = layout.size_addr + _RETPTR_ADDR_OFFSET
    machine.write_word(retptr_addr, victim.label_pc("benign"))
    channel = FlushReloadChannel(machine, layout.probe)

    # Victim working set is warm (it uses its secret and pointer).
    warm_lines(machine, [layout.secret_addr, retptr_addr],
               code_base=layout.helper_code)

    # Warm victim code and translations with legitimate executions.
    for _ in range(2):
        machine.run(victim)

    # a) plant: the attacker's call pushes the gadget address.
    gadget_pc = victim.label_pc("gadget")
    machine.run(build_pusher(gadget_pc))
    planted = machine.rsb.peek()

    # b) flush the return pointer and the probe array.
    machine.flush_address(retptr_addr)
    channel.flush()

    # c) trigger the victim.
    run = machine.run(victim)

    outcome = channel.reload()
    return AttackResult(
        attack="spectre_rsb",
        policy=policy,
        secret=secret,
        leaked=outcome.value,
        details={
            "hot_slots": outcome.hot_slots,
            "planted_return": planted,
            "gadget_pc": gadget_pc,
            "victim_cycles": run.cycles,
        },
    )
