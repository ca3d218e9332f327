"""Running workloads and collecting the metrics the figures need."""

from __future__ import annotations

from typing import Dict, Union

from repro.core.policy import CommitPolicy
from repro.exec.job import (DEFAULT_INSTRUCTION_BUDGET, WORKLOAD, SimJob,
                            SimResult)
from repro.machine import Machine
from repro.spec import MachineSpec
from repro.workloads.generator import generate_program, WorkloadProgram
from repro.workloads.profiles import WorkloadProfile, profile_by_name


def run_workload(workload: Union[str, WorkloadProfile, WorkloadProgram],
                 policy: CommitPolicy = CommitPolicy.BASELINE,
                 instructions: int = DEFAULT_INSTRUCTION_BUDGET,
                 spec: MachineSpec = MachineSpec(),
                 backend: str = "cycle",
                 ) -> SimResult:
    """Run one workload on a fresh ``spec`` machine under ``policy``.

    ``workload`` may be a suite benchmark name, a profile, or an
    already-generated :class:`WorkloadProgram`.  ``backend`` selects
    the execution backend (``repro.backends``).  The result is keyed
    like the workload job of the same content.
    """
    if isinstance(workload, str):
        workload = profile_by_name(workload)
    if isinstance(workload, WorkloadProfile):
        workload = generate_program(workload)
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    workload.apply_memory_image(machine)
    result = machine.run(workload.program, max_instructions=instructions)

    occupancy: Dict[str, Dict[int, int]] = {}
    commit_rates: Dict[str, float] = {}
    if machine.engine is not None:
        for structure in machine.engine.all_structures():
            occupancy[structure.name] = dict(
                structure.occupancy_histogram.items())
            commit_rates[structure.name] = structure.commit_rate()
    job = SimJob(kind=WORKLOAD, target=workload.profile.name, policy=policy,
                 instructions=instructions, params={"backend": backend},
                 spec=spec)
    return SimResult(
        job_key=job.key(),
        kind=WORKLOAD,
        target=job.target,
        policy=policy,
        cycles=result.cycles,
        instructions=result.instructions,
        halted_reason=result.halted_reason,
        counters=dict(result.counters),
        shadow_occupancy=occupancy,
        shadow_commit_rates=commit_rates,
    )


def run_workload_job(job: SimJob) -> SimResult:
    """Pure job-spec entry point: rebuild all machine state from ``job``.

    This is what executor workers call.
    """
    return run_workload(job.target, job.policy,
                        instructions=job.instructions, spec=job.spec,
                        backend=str(job.params.get("backend", "cycle")))
