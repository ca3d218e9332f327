"""Running workloads and collecting the metrics the figures need."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

from repro.core.policy import CommitPolicy
from repro.exec.job import (DEFAULT_INSTRUCTION_BUDGET, FigureMetrics,
                            SimJob, SimResult)
from repro.machine import Machine
from repro.pipeline.core import RunResult
from repro.spec import MachineSpec
from repro.statistics import Histogram
from repro.workloads.generator import generate_program, WorkloadProgram
from repro.workloads.profiles import WorkloadProfile, profile_by_name


@dataclass
class WorkloadRun(FigureMetrics):
    """One workload execution plus the derived per-figure metrics.

    The figure formulas themselves live in
    :class:`~repro.exec.job.FigureMetrics`, shared with the
    serializable :class:`~repro.exec.job.SimResult`.
    """

    workload: str
    policy: CommitPolicy
    result: RunResult
    shadow_occupancy: Dict[str, Histogram] = field(default_factory=dict)
    shadow_commit_rates: Dict[str, float] = field(default_factory=dict)

    # -- derived metrics ---------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.result.ipc

    def _counter(self, name: str) -> int:
        return self.result.counters.get(name, 0)

    def shadow_size_percentile(self, structure: str,
                               fraction: float = 0.9999) -> int:
        """Figures 6-9: shadow size covering ``fraction`` of cycles."""
        histogram = self.shadow_occupancy.get(structure)
        return histogram.percentile(fraction) if histogram else 0


def run_workload(workload: Union[str, WorkloadProfile, WorkloadProgram],
                 policy: CommitPolicy = CommitPolicy.BASELINE,
                 instructions: int = DEFAULT_INSTRUCTION_BUDGET,
                 spec: MachineSpec = MachineSpec(),
                 backend: str = "cycle",
                 ) -> WorkloadRun:
    """Run one workload on a fresh ``spec`` machine under ``policy``.

    ``workload`` may be a suite benchmark name, a profile, or an
    already-generated :class:`WorkloadProgram`.  ``backend`` selects
    the execution backend (``repro.backends``).
    """
    if isinstance(workload, str):
        workload = profile_by_name(workload)
    if isinstance(workload, WorkloadProfile):
        workload = generate_program(workload)
    machine = Machine.from_spec(spec, policy=policy, backend=backend)
    workload.apply_memory_image(machine)
    result = machine.run(workload.program, max_instructions=instructions)

    occupancy: Dict[str, Histogram] = {}
    commit_rates: Dict[str, float] = {}
    if machine.engine is not None:
        for structure in machine.engine.all_structures():
            occupancy[structure.name] = structure.occupancy_histogram
            commit_rates[structure.name] = structure.commit_rate()
    return WorkloadRun(
        workload=workload.profile.name,
        policy=policy,
        result=result,
        shadow_occupancy=occupancy,
        shadow_commit_rates=commit_rates,
    )


def run_workload_job(job: SimJob) -> SimResult:
    """Pure job-spec entry point: rebuild all machine state from ``job``.

    This is what executor workers call; everything the figures need is
    folded into the returned (serializable) :class:`SimResult`.
    """
    run = run_workload(
        job.target, job.policy,
        instructions=job.instructions,
        spec=job.spec,
        backend=str(job.params.get("backend", "cycle")),
    )
    return SimResult(
        job_key=job.key(),
        kind=job.kind,
        target=job.target,
        policy=job.policy,
        cycles=run.result.cycles,
        instructions=run.result.instructions,
        halted_reason=run.result.halted_reason,
        counters=dict(run.result.counters),
        shadow_occupancy={
            name: dict(histogram.items())
            for name, histogram in run.shadow_occupancy.items()},
        shadow_commit_rates=dict(run.shadow_commit_rates),
    )
