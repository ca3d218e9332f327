"""Attack orchestration: the one attack runner, results, job plumbing,
and the security matrix.

An attack module states what is its own as an :class:`Attack` — its
programs, memory image, training, trigger and receiver — and
:func:`run_attack` performs the steps every attack shares, in one order.
Like a Revizor or Spectector test case, an attack is a program, its
inputs and one observation.

The attack catalogue itself lives in the component registry
(:data:`repro.api.registry.ATTACKS`): each attack module registers its
entry point (through :func:`register`), carrying the paper's
expected-closed metadata.  This module also keeps the classic
:class:`AttackResult` type, the job-spec worker entry point and the
matrix renderer.  Batch runs go through
:meth:`repro.api.session.Session.matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Collection, Dict, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.api import registry as api_registry
from repro.attacks.channels import (FlushReloadChannel, PrimeProbeChannel,
                                    leaked_value)
from repro.attacks.gadgets import AttackLayout, warm_lines
from repro.core.policy import CommitPolicy
from repro.exec.job import SimJob, SimResult, json_clean_details
from repro.isa.program import Program
from repro.machine import Machine
from repro.memory.paging import PrivilegeLevel
from repro.spec import MachineSpec

# TlbProbeChannel is a FlushReloadChannel.
Receiver = Union[FlushReloadChannel, PrimeProbeChannel]


@dataclass
class AttackResult:
    """Outcome of one attack attempt.

    ``leaked`` is the value the receiver recovered (None when nothing
    leaked); ``success`` is True when the recovered value equals the
    planted secret — the attacker learned something they should not have.
    """

    attack: str
    policy: CommitPolicy
    secret: int
    leaked: Optional[int]
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.leaked is not None and self.leaked == self.secret

    @property
    def closed(self) -> bool:
        """Whether the defense closed the channel (attack failed)."""
        return not self.success

    def __str__(self) -> str:
        verdict = "LEAKED" if self.success else "closed"
        return (f"{self.attack:12s} under {self.policy.value:8s}: {verdict} "
                f"(secret={self.secret}, recovered={self.leaked})")


@dataclass(frozen=True)
class Attack:
    """What one attack states; :func:`run_attack` does the rest.

    ``train`` gets the machine and the receiver and may return facts,
    which ``details`` gets as keywords after the trigger run and the hot
    slots.  A secret among the ``benign`` slots is refused.
    """

    program: Program                      # the trigger runs it
    words: Sequence[Tuple[int, int]]      # memory image, secret included
    train: Callable[[Machine, Receiver], Optional[Dict[str, object]]]
    details: Callable[..., Dict[str, object]]
    # Built once the image is written; flush+reload over the layout's
    # probe array when None.
    receiver: Optional[Callable[[Machine], Receiver]] = None
    maps: Sequence[Tuple[int, int]] = ()  # user ranges beyond the layout's
    kernel: bool = False                  # map the layout's kernel page
    warm: Sequence[int] = ()              # lines the victim used recently
    warm_privilege: PrivilegeLevel = PrivilegeLevel.USER
    flush: Sequence[int] = ()             # flushed before the receiver's
    registers: Optional[Dict[int, int]] = None      # the trigger's inputs
    fault_handler_pc: Optional[int] = None
    benign: Collection[int] = ()          # slots hot by construction
    # The slot the secret lands in, for a receiver coarser than one slot
    # per value (see repro.attacks.channels.leaked_value).
    secret_slot: Optional[int] = None


def prepare(machine: Machine, layout: AttackLayout,
            words: Sequence[Tuple[int, int]],
            maps: Sequence[Tuple[int, int]] = (),
            kernel: bool = False) -> None:
    """The shared setup step: map the layout's user pages, ``maps`` and,
    with ``kernel``, its kernel page, then write ``words`` in order."""
    layout.map_user_memory(machine)
    for start, size in maps:
        machine.map_user_range(start, size)
    if kernel:
        layout.map_kernel_memory(machine)
    machine.write_words(words)


def mistrain(program: Program, runs: int,
             **options: object) -> Callable[[Machine, Receiver], None]:
    """Training that runs ``program`` ``runs`` times with the
    :meth:`Machine.run` ``options`` (benign inputs)."""
    def train(machine: Machine, receiver: Receiver) -> None:
        for _ in range(runs):
            machine.run(program, **options)
    return train


def run_attack(name: str,
               describe: Callable[[Machine, AttackLayout, int], Attack],
               policy: CommitPolicy, secret: int, spec: MachineSpec,
               backend: str,
               spec_overrides: Mapping[str, object] = {}) -> AttackResult:
    """Run attack ``name``: every step but the attack's own, in order.

    ``describe(machine, layout, secret)`` states the attack; it may read
    the machine's geometry but makes no call on it.
    """
    if not 0 <= secret <= 255:
        raise ValueError(f"secret must be a byte, got {secret}")
    layout = AttackLayout()
    machine = Machine.from_spec(spec.derive(**spec_overrides),
                                policy=policy, backend=backend)
    attack = describe(machine, layout, secret)
    if secret in attack.benign:
        raise ValueError(f"secret {secret} is a benign slot of {name}")
    prepare(machine, layout, attack.words, attack.maps, attack.kernel)
    receiver = (attack.receiver(machine) if attack.receiver is not None
                else FlushReloadChannel(machine, layout.probe))
    if attack.warm:
        warm_lines(machine, attack.warm, code_base=layout.helper_code,
                   privilege=attack.warm_privilege)
    trained = attack.train(machine, receiver) or {}
    for address in attack.flush:
        machine.flush_address(address)
    receiver.flush()
    run = machine.run(attack.program, initial_registers=attack.registers,
                      fault_handler_pc=attack.fault_handler_pc)
    hot = receiver.probe().hot_slots
    return AttackResult(
        attack=name, policy=policy, secret=secret,
        leaked=leaked_value(hot, attack.benign, secret, attack.secret_slot),
        details=attack.details(run, hot, **trained))


def register(name: str,
             describe: Callable[[Machine, AttackLayout, int], Attack], *,
             branch_free: bool = False,
             spec_overrides: Mapping[str, object] = {}
             ) -> Callable[..., AttackResult]:
    """Register attack ``name``, stated by ``describe``, with the
    registry's ``branch_free`` metadata, and return its entry point."""
    def entry(policy: CommitPolicy, secret: int = 42,
              spec: MachineSpec = MachineSpec(),
              backend: str = "cycle") -> AttackResult:
        return run_attack(name, describe, policy, secret, spec, backend,
                          spec_overrides)
    entry.__doc__ = f"Run the {name} attack under the given commit policy."
    return api_registry.register_attack(name, branch_free=branch_free)(entry)


def run_attack_by_name(name: str, policy: CommitPolicy,
                       secret: int = 42,
                       spec: MachineSpec = MachineSpec(),
                       backend: str = "cycle") -> AttackResult:
    """Run one registered attack by name on the ``spec`` machine and
    the ``backend`` execution backend."""
    attack = api_registry.ATTACKS.get(name)
    return attack(policy, secret, spec=spec, backend=backend)


def run_attack_job(job: SimJob) -> SimResult:
    """Execute one attack job from scratch — the executor worker entry.

    The attack function builds (and mistrains) its own machines, so the
    whole run is reconstructed from the job spec; the outcome is folded
    into a serializable :class:`~repro.exec.job.SimResult`.
    """
    secret = int(job.params.get("secret", 42))
    backend = str(job.params.get("backend", "cycle"))
    outcome = run_attack_by_name(job.target, job.policy, secret,
                                 spec=job.spec, backend=backend)
    return SimResult(
        job_key=job.key(),
        kind=job.kind,
        target=job.target,
        policy=job.policy,
        secret=outcome.secret,
        leaked=outcome.leaked,
        details=json_clean_details(outcome.details),
    )


def attack_result_from_sim(result: SimResult) -> AttackResult:
    """Rehydrate the classic :class:`AttackResult` view of a job result."""
    return AttackResult(
        attack=result.target,
        policy=result.policy,
        secret=result.secret if result.secret is not None else 0,
        leaked=result.leaked,
        details=dict(result.details),
    )


def render_matrix(matrix: Dict[str, Dict[str, AttackResult]]) -> str:
    """Pretty-print a security matrix as the paper's check/cross table."""
    policies = sorted({p for row in matrix.values() for p in row})
    width = max(map(len, ["attack", *matrix]))
    header = f"{'attack':{width}s} " + " ".join(f"{p:>9s}" for p in policies)
    lines = [header, "-" * len(header)]
    for attack, row in matrix.items():
        cells = []
        for policy in policies:
            result = row.get(policy)
            if result is None:
                cells.append(f"{'-':>9s}")
            else:
                cells.append(f"{'closed' if result.closed else 'LEAKED':>9s}")
        lines.append(f"{attack:{width}s} " + " ".join(cells))
    return "\n".join(lines)
