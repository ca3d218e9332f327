"""ret2spec: RSB underflow through deep call nesting.

The RSB is a fixed-depth circular stack: a call chain deeper than the
RSB evicts the oldest return addresses, and the matching outer ``ret``
later pops an *empty* RSB.  With no prediction the front end falls
through — straight into whatever the attacker (or unlucky code layout)
placed after the ``ret``.  Maurice et al.'s ret2spec turns this into a
speculative gadget dispatch entirely within one victim program:

a) the machine's RSB is sized below the victim's call depth
   (``rsb.depth=4`` against a 5-deep nest), so the outermost frame's
   return address is evicted by the innermost call;
b) the outer frame's return register is data-dependent on a flushed
   load, so the underflowing ``ret`` resolves late — a long window;
c) the ``ret``'s fall-through is the gadget: speculative fetch runs it,
   reading the secret and transmitting through the probe array, while
   the architectural return unwinds correctly to the caller.
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

_RSB_DEPTH = 4          # the victim's call nest is 5 deep


def build_victim(layout: AttackLayout) -> Program:
    """One program: a 5-deep call nest whose outermost return underflows.

    Call chain main -> f1 -> f2 -> f3 -> f4 -> f5 pushes five return
    addresses through a depth-4 RSB, evicting main's.  The inner frames
    pop their own (correctly predicted) entries; f1's ``ret`` pops
    empty and speculates into its fall-through — the gadget.  ``r4``
    (f1's return address) is rebuilt through a flushed-load dependence
    so the ret resolves late.
    """
    b = ProgramBuilder(code_base=layout.victim_code)
    b.li("r9", layout.probe)
    b.li("r10", layout.secret_addr)
    b.li("r2", layout.delay1)
    b.call("r4", "f1")
    b.halt()                           # main's return target
    b.label("f1")
    b.load("r3", "r2", 0)              # flushed delay word (slow)
    b.alu("and", "r12", "r3", "r0")    # r12 = r3 & 0 = 0, dep on r3
    b.call("r5", "f2")
    b.add("r4", "r4", "r12")           # r4 unchanged, now resolves late
    b.ret("r4")                        # pops EMPTY -> falls through
    b.label("gadget")                  # the ret's fall-through
    b.load("r13", "r10", 0)            # secret
    b.alu("shl", "r14", "r13", imm=6)
    b.add("r11", "r9", "r14")
    b.load("r15", "r11", 0)            # transmit
    b.halt()
    b.label("f2")
    b.call("r6", "f3")
    b.ret("r5")
    b.label("f3")
    b.call("r7", "f4")
    b.ret("r6")
    b.label("f4")
    b.call("r8", "f5")
    b.ret("r7")
    b.label("f5")
    b.ret("r8")
    return b.build()


@register_attack("ret2spec")
def run_ret2spec(policy: CommitPolicy, secret: int = 42,
                 spec: MachineSpec = MachineSpec(),
                 backend: str = "cycle") -> AttackResult:
    """Run the full ret2spec attack under the given commit policy."""
    if not 0 <= secret <= 255:
        raise ValueError(f"secret must be a byte, got {secret}")
    spec = spec.derive(**{"rsb.depth": _RSB_DEPTH})
    layout = AttackLayout()
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    layout.map_user_memory(machine)
    machine.write_word(layout.secret_addr, secret)

    victim = build_victim(layout)
    channel = FlushReloadChannel(machine, layout.probe)

    # The victim has touched its secret and delay word recently.
    warm_lines(machine, [layout.secret_addr, layout.delay1],
               code_base=layout.helper_code)

    # Warm victim code and translations (the call nest is balanced, so
    # every run leaves the RSB empty again).
    for _ in range(2):
        machine.run(victim)

    # Flush the delay word (stretches the underflowing ret's window)
    # and the probe array.
    machine.flush_address(layout.delay1)
    channel.flush()

    run = machine.run(victim)

    outcome = channel.reload()
    return AttackResult(
        attack="ret2spec",
        policy=policy,
        secret=secret,
        leaked=outcome.value,
        details={
            "hot_slots": outcome.hot_slots,
            "rsb_depth": _RSB_DEPTH,
            "gadget_pc": victim.label_pc("gadget"),
            "victim_cycles": run.cycles,
        },
    )
