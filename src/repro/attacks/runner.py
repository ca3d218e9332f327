"""Attack orchestration: results, job plumbing, and the security matrix.

The attack catalogue itself lives in the component registry
(:data:`repro.api.registry.ATTACKS`): each attack module registers its
entry point with ``@register_attack``, carrying the paper's
expected-closed metadata.  This module keeps the classic
:class:`AttackResult` type, the job-spec worker entry point, the matrix
renderer.  Batch runs go through
:meth:`repro.api.session.Session.matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.api import registry as api_registry
from repro.core.policy import CommitPolicy
from repro.exec.job import SimJob, SimResult, json_clean_details
from repro.spec import MachineSpec


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
