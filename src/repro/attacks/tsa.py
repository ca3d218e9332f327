"""Transient Speculation Attack (TSA) — paper Section V, Figure 10.

TSAs are covert channels *inside* the shadow state: a mis-speculated
Trojan path and a will-commit Spy path share the shadow structures for a
window, and contention between them is observable after the Spy commits.

The PoC transmits one bit through shadow-dTLB contention with the DROP
full-policy:

* The Spy issues two loads to cold pages A and B.  Their translations
  should be installed (via shadow, then promotion at commit) into the
  committed dTLB.
* The Trojan runs on a mis-speculated path behind a mistrained,
  long-latency branch.  If the (illegally read) secret bit is 1, it
  issues loads to enough cold pages to *fill* the shadow dTLB before the
  Spy's loads issue — so the Spy's fills are dropped and pages A/B are
  missing from the committed dTLB afterwards.
* The receiver times the translation of page A after the run: a TLB miss
  means the bit was 1.

The crucial ordering trick is out-of-order execution itself: the Spy's
loads are *older in program order* but their addresses depend on a
flushed load, so they issue ~200 cycles after the younger Trojan loads.

Mitigation (paper Section V): size the shadow structures for the worst
case.  With ``SizingMode.SECURE`` the shadow dTLB has LDQ+STQ entries —
more than the load queue can ever occupy — so the Trojan cannot create
contention and the channel closes.  ``run_tsa`` uses SECURE sizing (the
paper's chosen configuration, Table IV's "Transient" row);
``run_tsa_vulnerable`` shows the channel working on an undersized shadow.
"""

from __future__ import annotations

from typing import Dict

from repro.attacks.gadgets import AttackLayout, PAGE, warm_lines
from repro.api.registry import register_attack
from repro.attacks.runner import AttackResult, prepare
from repro.core.policy import CommitPolicy
from repro.core.safespec import SafeSpecConfig, SizingMode
from repro.core.shadow import FullPolicy
from repro.isa.assembler import ProgramBuilder
from repro.isa.program import Program
from repro.machine import Machine
from repro.spec import MachineSpec

_SHADOW_DTLB_SMALL = 4        # undersized shadow dTLB for the PoC
_TROJAN_PAGES = 4             # trojan fills exactly the small shadow
_SPY_PAGE_A = 0x2_00_0000
_SPY_PAGE_B = 0x2_01_0000
_TROJAN_BASE = 0x2_10_0000
_PRIME_BASE = 0x2_80_0000     # 80 pages used to evict the real dTLB


def build_program(layout: AttackLayout) -> Program:
    """Spy + Trojan in one victim program (Figure 10's three steps)."""
    b = ProgramBuilder(code_base=layout.victim_code)
    # Delay source: flushed load; everything hangs off r2.
    b.li("r1", layout.delay1)
    b.load("r2", "r1", 0)
    b.alu("and", "r3", "r2", imm=0)         # r3 = 0, ready at ~200
    # --- Spy (will commit): loads to pages A and B, delayed by r3.
    b.li("r4", _SPY_PAGE_A)
    b.add("r5", "r4", "r3")
    b.load("r6", "r5", 0)
    b.li("r7", _SPY_PAGE_B)
    b.add("r8", "r7", "r3")
    b.load("r9", "r8", 0)
    # --- Long-latency branch condition: second flushed load, dependent
    # on the first so it resolves at ~400.
    b.li("r10", layout.delay2)
    b.add("r11", "r10", "r3")
    b.load("r12", "r11", 0)                 # value 1 in the attack run
    b.branch("eq", "r12", "r0", "trojan")   # mistrained taken; actually NT
    b.halt()                                # the committed path ends here
    # --- Trojan (mis-speculated): reads the secret, conditionally fills.
    b.label("trojan")
    b.li("r13", layout.secret_addr)
    b.load("r14", "r13", 0)                 # the "unauthorized" read
    b.branch("eq", "r14", "r0", "trojan_end")
    b.li("r15", _TROJAN_BASE)
    for page in range(_TROJAN_PAGES):
        b.load("r14", "r15", page * PAGE)   # fill the shadow dTLB
    b.label("trojan_end")
    b.halt()
    return b.build()


def _prime_dtlb(machine: Machine, round_index: int) -> None:
    """Touch more distinct pages than the dTLB holds, evicting it.

    Each priming round uses a fresh page range: re-touching the previous
    round's pages would mostly *hit* the TLB and evict nothing.
    """
    entries = machine.hierarchy.dtlb.config.entries
    base = _PRIME_BASE + round_index * (entries + 16) * PAGE
    pages = [base + i * PAGE for i in range(entries + 8)]
    machine.map_user_range(base, (entries + 9) * PAGE)
    # Serialized so the priming itself cannot overflow a tiny shadow dTLB
    # (dropped fills would make the eviction incomplete).
    warm_lines(machine, pages, code_base=0x72_000, serialized=True)


def _setup(policy: CommitPolicy, secret_bit: int, spec: MachineSpec,
           backend: str, layout: AttackLayout) -> Machine:
    """The machine after the shared setup step: mappings and memory."""
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    prepare(machine, layout,
            # delay2 == 0 is the training value: the branch is taken.
            [(layout.secret_addr, secret_bit), (layout.delay2, 0)],
            maps=[(_SPY_PAGE_A, PAGE), (_SPY_PAGE_B, PAGE),
                  (_TROJAN_BASE, _TROJAN_PAGES * PAGE)])
    return machine


def _transmit(machine: Machine, layout: AttackLayout,
              secret_bit: int) -> AttackResult:
    """Train, attack and receive on a machine after :func:`_setup`."""
    program = build_program(layout)

    # Mistrain the trojan branch to predicted-taken (delay2 == 0 runs).
    # These runs execute the trojan architecturally, which also warms its
    # code and the secret line.
    for _ in range(6):
        machine.run(program)

    # Attack run preparation: evict the real dTLB so that spy/trojan page
    # translations must go through the shadow, then re-warm the pages the
    # in-window code needs to be fast (secret, delay sources, code).
    machine.run(program)                   # re-warm code path (delay2==0)
    machine.write_word(layout.delay2, 1)   # attack value: branch not taken
    _prime_dtlb(machine, round_index=0)
    warm_lines(machine, [layout.secret_addr, layout.delay1, layout.delay2],
               code_base=layout.helper_code)
    machine.flush_address(layout.delay1)
    machine.flush_address(layout.delay2)

    run = machine.run(program)

    # Receiver: are the spy's translations in the committed dTLB?
    lat_a = machine.probe_translation_latency(_SPY_PAGE_A)
    lat_b = machine.probe_translation_latency(_SPY_PAGE_B)
    spy_entries_present = lat_a <= 2 and lat_b <= 2
    leaked = 0 if spy_entries_present else 1
    return AttackResult(
        attack="transient",
        policy=machine.policy,
        secret=secret_bit,
        leaked=leaked,
        details={
            "latency_page_a": lat_a,
            "latency_page_b": lat_b,
            "shadow_dtlb_capacity":
                machine.engine.shadow_dtlb.capacity,
            "shadow_dtlb_drops":
                machine.engine.shadow_dtlb.stats.counter("drops").value,
            "victim_cycles": run.cycles,
        },
    )


def _run_tsa(policy: CommitPolicy, secret_bit: int,
             spec: MachineSpec,
             backend: str = "cycle") -> AttackResult:
    if policy is CommitPolicy.BASELINE:
        # TSAs attack the shadow structures; without SafeSpec there is no
        # shadow state to contend on (classic Spectre applies instead).
        return AttackResult(
            attack="transient", policy=policy, secret=secret_bit,
            leaked=None,
            details={"note": "no shadow structures under the baseline"})
    layout = AttackLayout()
    return _transmit(_setup(policy, secret_bit, spec, backend, layout),
                     layout, secret_bit)


def _verdict(attack: str, policy: CommitPolicy, secret: int,
             reads: Dict[int, int], **details: object) -> AttackResult:
    """The covert-channel verdict from the bit each value's run read.

    A covert channel only exists if the receiver can distinguish a 0 from
    a 1, so the PoC transmits *both* values; the attack counts as a leak
    only when both are read back correctly, and then what leaked is the
    read of the secret's bit.
    """
    channel_works = all(reads[bit] == bit for bit in (0, 1))
    return AttackResult(
        attack=attack,
        policy=policy,
        secret=secret & 1,
        leaked=reads[secret & 1] if channel_works else None,
        details={"channel_works": channel_works, **details},
    )


def _run_tsa_channel(policy: CommitPolicy, secret: int,
                     spec: MachineSpec,
                     backend: str = "cycle") -> AttackResult:
    """Run the TSA channel for both bit values and report honestly.

    (With worst-case sizing the receiver reads 0 regardless of the bit —
    zero information.)
    """
    results = {bit: _run_tsa(policy, bit, spec, backend)
               for bit in (0, 1)}
    return _verdict("transient", policy, secret,
                    {bit: results[bit].leaked for bit in (0, 1)},
                    bit0=results[0].details, bit1=results[1].details)


@register_attack("transient")
def run_tsa(policy: CommitPolicy, secret: int = 1,
            spec: MachineSpec = MachineSpec(),
            backend: str = "cycle") -> AttackResult:
    """TSA against the paper's mitigated configuration (SECURE sizing).

    With worst-case shadow sizing the Trojan cannot create contention,
    so the receiver reads the same value for both bits and the channel
    carries no information — the attack is closed (paper Table IV).
    A ``spec`` carrying its own ``safespec`` section (e.g. the
    ``safespec-p9999`` preset) overrides the SECURE default, so sizing
    sensitivity is sweepable like any other hardware axis.
    """
    if policy.uses_shadow and spec.safespec is None:
        spec = spec.derive(safespec=SafeSpecConfig(
            policy=policy, sizing=SizingMode.SECURE,
            full_policy=FullPolicy.DROP))
    return _run_tsa_channel(policy, secret, spec, backend)


def _undersized(policy: CommitPolicy, full_policy: FullPolicy) -> MachineSpec:
    """The default machine with a 4-entry shadow dTLB."""
    return MachineSpec().derive(safespec=SafeSpecConfig(
        policy=policy, sizing=SizingMode.CUSTOM, full_policy=full_policy,
        dcache_entries=256, icache_entries=256,
        itlb_entries=64, dtlb_entries=_SHADOW_DTLB_SMALL))


def run_tsa_vulnerable(policy: CommitPolicy = CommitPolicy.WFC,
                       secret: int = 1) -> AttackResult:
    """TSA against an *undersized* shadow dTLB (the channel works).

    This demonstrates why the paper's worst-case sizing matters: with a
    4-entry shadow dTLB the Trojan's fills exhaust the structure, the
    Spy's fills are dropped, and the bit crosses from the doomed path to
    the committed path.
    """
    return _run_tsa_channel(policy, secret,
                            _undersized(policy, FullPolicy.DROP))


def run_tsa_block_policy(policy: CommitPolicy = CommitPolicy.WFC,
                         secret: int = 1) -> AttackResult:
    """TSA via the BLOCK full-policy's *timing* channel.

    The paper's other full-structure behaviour (Section V): when accesses
    block on a full shadow structure, a will-commit Spy's loads are
    *delayed* rather than dropped while the Trojan holds the structure
    full, so the run's execution time itself carries the bit.  The
    receiver compares the transmitted-1 run's cycle count against the
    transmitted-0 run's.
    """
    spec = _undersized(policy, FullPolicy.BLOCK)
    cycles = {bit: _run_tsa(policy, bit, spec).details.get("victim_cycles", 0)
              for bit in (0, 1)}
    # Timing receiver: a transmitted 1 stalls the spy behind the full
    # shadow until the trojan is annulled (~hundreds of cycles), so a
    # run at least 50 cycles slower than the transmitted-0 run reads 1.
    return _verdict("transient_block", policy, secret,
                    {bit: int(cycles[bit] > cycles[0] + 50)
                     for bit in (0, 1)},
                    cycles_bit0=cycles[0], cycles_bit1=cycles[1])
