"""Sampled simulation driver: window jobs, worker entry, stitching.

Each (checkpoint, window) pair is one independent ``sample``
:class:`~repro.exec.job.SimJob`: the job carries only its spec and
*plan coordinates* (workload, plan knobs, slice index, backends), never
the checkpoint itself — workers re-derive checkpoints deterministically
with a per-process memoized fast-forward scan.  That keeps sample jobs
content-hashable exactly like every other kind, so they flow through the
serial/parallel executors and the on-disk result cache unchanged, and
a repeated sampled run is all cache hits.

Stitching (:func:`stitch_windows`) turns the measured windows back into
whole-program estimates: each measured slice contributes its own IPC
(the anchor slice — measured whole — contributes its exact cycles),
every unmeasured slice contributes the mean steady-state window IPC,
and the error bar is the 95% confidence interval of that mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.policy import CommitPolicy
from repro.errors import SampleError
from repro.exec.job import SAMPLE, SCHEMA_VERSION, SimJob, SimResult
from repro.machine import Machine
from repro.sample.checkpoint import Checkpoint
from repro.sample.plan import SamplePlan, resolve_workload, scan_checkpoints
from repro.spec import MachineSpec
from repro.workloads.generator import WorkloadProgram
from repro.workloads.profiles import WorkloadProfile

# Per-process memo of fast-forward scans, keyed by everything that can
# change the produced checkpoints.  A worker measuring several windows
# of one plan scans once; each window takes its checkpoint out of the
# memo, so a checkpoint is freed once its window is measured, and the
# cap keeps long-lived workers bounded.
_SCAN_MEMO: Dict[Tuple, Dict[int, Checkpoint]] = {}
_SCAN_MEMO_MAX = 4


def sample_job(benchmark: str, policy: CommitPolicy, index: int,
               plan: SamplePlan, total_instructions: int,
               *, spec: MachineSpec = MachineSpec(),
               backend: str = "cycle", ff_backend: str = "fast",
               warm: bool = True) -> SimJob:
    """The job measuring slice ``index`` of one sampled run.

    ``instructions`` is the *measured* window length (the whole
    interval for the anchor slice, see
    :meth:`~repro.sample.plan.SamplePlan.window_span`); the
    fast-forward distance is implied by ``index * plan.interval``.  All
    plan knobs, both backend names, the slice index and the total
    budget land in ``params`` and therefore in the cache key: two
    plans, or the same plan over two totals, can never share a window
    result.
    """
    return SimJob(
        kind=SAMPLE,
        target=benchmark,
        policy=policy,
        instructions=plan.window_span(index, total_instructions)[1],
        params={
            "backend": backend,
            "ff_backend": ff_backend,
            "window_index": index,
            "total": total_instructions,
            "warm": warm,
            **plan.to_params(),
        },
        spec=spec,
    )


def _checkpoint_for(job: SimJob, plan: SamplePlan) -> Checkpoint:
    """The checkpoint opening this job's slice, taken out of the
    per-process memo.

    Each selected slice is one job, so nothing reads a checkpoint after
    its window; a later request for a slice already taken rescans, as
    one for a slice the memo never held does.
    """
    index = int(job.params["window_index"])
    total = int(job.params["total"])
    ff_backend = str(job.params.get("ff_backend", "fast"))
    warm = bool(job.params.get("warm", True))
    memo_key = (job.target, plan.to_params()["interval"], plan.warmup,
                plan.windows, plan.window, plan.seed, total, job.policy,
                ff_backend, warm, job.spec)
    checkpoints = _SCAN_MEMO.get(memo_key)
    if checkpoints is None or index not in checkpoints:
        # One scan covers every slice this plan selects, so sibling
        # window jobs landing on this worker are all served by it.
        wanted = set(plan.select_windows(total))
        wanted.add(index)
        checkpoints = scan_checkpoints(job.target, plan, wanted,
                                       spec=job.spec, policy=job.policy,
                                       ff_backend=ff_backend, warm=warm)
        if len(_SCAN_MEMO) >= _SCAN_MEMO_MAX:
            _SCAN_MEMO.pop(next(iter(_SCAN_MEMO)))
        _SCAN_MEMO[memo_key] = checkpoints
    checkpoint = checkpoints.pop(index)
    if not checkpoints:
        del _SCAN_MEMO[memo_key]
    return checkpoint


def run_sample_job(job: SimJob) -> SimResult:
    """Pure job-spec worker entry: measure one checkpointed window.

    Restores the slice-opening checkpoint onto a fresh machine built
    from the job's spec/policy/backend, runs the slice's warmup budget
    (warming the measuring core's predictor, BTB, TLBs and caches
    beyond the checkpoint's warm state; zero for the anchor slice),
    then measures exactly one window.  Statistics are collected for the
    measured window only.
    """
    plan = SamplePlan.from_params(job.params)
    return measure_window(job, _checkpoint_for(job, plan))


def measure_window(job: SimJob, checkpoint: Checkpoint) -> SimResult:
    """Measure ``job``'s window, restored from ``checkpoint`` (the
    checkpoint opening its slice)."""
    plan = SamplePlan.from_params(job.params)
    backend = str(job.params.get("backend", "cycle"))
    wl = resolve_workload(job.target)
    warmup, window = plan.window_span(int(job.params["window_index"]),
                                      int(job.params["total"]))

    machine = Machine.from_spec(job.spec, policy=job.policy, backend=backend)
    checkpoint.apply(machine)

    next_pc: Optional[int] = checkpoint.next_pc
    registers = dict(enumerate(checkpoint.registers))
    warmup_instructions = 0
    if warmup:
        warm_result = machine.run(wl.program,
                                  max_instructions=warmup,
                                  start_pc=next_pc,
                                  initial_registers=registers)
        warmup_instructions = warm_result.instructions
        if warm_result.halted_reason != "budget":
            # The program ended inside the warmup: nothing measurable
            # remains in this slice.  Surfaced via halted_reason so the
            # stitcher (and the CLI) can flag the window.
            return _window_result(job, plan, checkpoint, warm_result,
                                  machine, warmup_instructions,
                                  measured=False)
        next_pc = warm_result.next_pc
        registers = dict(enumerate(warm_result.registers))

    result = machine.run(wl.program,
                         max_instructions=window,
                         start_pc=next_pc,
                         initial_registers=registers)
    return _window_result(job, plan, checkpoint, result, machine,
                          warmup_instructions, measured=True)


def _window_result(job: SimJob, plan: SamplePlan, checkpoint: Checkpoint,
                   result, machine, warmup_instructions: int,
                   *, measured: bool) -> SimResult:
    occupancy: Dict[str, Dict[int, int]] = {}
    commit_rates: Dict[str, float] = {}
    if machine.engine is not None:
        for structure in machine.engine.all_structures():
            occupancy[structure.name] = dict(
                structure.occupancy_histogram.items())
            commit_rates[structure.name] = structure.commit_rate()
    return SimResult(
        job_key=job.key(),
        kind=job.kind,
        target=job.target,
        policy=job.policy,
        cycles=result.cycles,
        instructions=result.instructions,
        halted_reason=result.halted_reason,
        counters=dict(result.counters),
        shadow_occupancy=occupancy,
        shadow_commit_rates=commit_rates,
        details={
            "window_index": int(job.params["window_index"]),
            "start_instruction": checkpoint.instructions,
            "checkpoint_digest": checkpoint.digest(),
            "warmup_instructions": warmup_instructions,
            "measured": measured,
        },
    )


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowMeasurement:
    """One measured window, as the report carries it."""

    index: int
    start_instruction: int
    instructions: int
    cycles: int
    halted_reason: str
    checkpoint_digest: str
    from_cache: bool = False

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def ok(self) -> bool:
        """A window measured its full budget (ended on the budget stop)."""
        return self.halted_reason == "budget" and self.instructions > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "start_instruction": self.start_instruction,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "halted_reason": self.halted_reason,
            "checkpoint_digest": self.checkpoint_digest,
            "from_cache": self.from_cache,
        }


@dataclass(frozen=True)
class SampleReport:
    """Stitched whole-program estimates from one sampled run."""

    target: str
    policy: CommitPolicy
    backend: str
    ff_backend: str
    plan: SamplePlan
    total_instructions: int
    num_intervals: int
    windows: Tuple[WindowMeasurement, ...]
    stitched_ipc: float
    stitched_cycles: int
    ipc_mean: float
    ipc_std: float
    ipc_ci95: float
    estimated_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def measured_windows(self) -> int:
        return sum(1 for w in self.windows if w.ok)

    @property
    def failed_windows(self) -> Tuple[WindowMeasurement, ...]:
        return tuple(w for w in self.windows if not w.ok)

    @property
    def coverage(self) -> float:
        """Fraction of the total budget actually measured in detail."""
        measured = sum(w.instructions for w in self.windows)
        return measured / self.total_instructions

    @property
    def cached_windows(self) -> int:
        return sum(1 for w in self.windows if w.from_cache)

    @property
    def ok(self) -> bool:
        return bool(self.windows) and not self.failed_windows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "target": self.target,
            "policy": self.policy.value,
            "backend": self.backend,
            "ff_backend": self.ff_backend,
            "plan": self.plan.to_params(),
            "total_instructions": self.total_instructions,
            "num_intervals": self.num_intervals,
            "windows": [w.to_dict() for w in self.windows],
            "measured_windows": self.measured_windows,
            "cached_windows": self.cached_windows,
            "coverage": self.coverage,
            "stitched_ipc": self.stitched_ipc,
            "stitched_cycles": self.stitched_cycles,
            "ipc_mean": self.ipc_mean,
            "ipc_std": self.ipc_std,
            "ipc_ci95": self.ipc_ci95,
            "estimated_counters": dict(self.estimated_counters),
        }

    def render_text(self) -> str:
        lines = [
            f"sampled {self.target}/{self.policy.value} "
            f"on {self.backend} (fast-forward: {self.ff_backend})",
            f"  plan: {self.plan.describe()}",
            f"  total budget: {self.total_instructions} instructions "
            f"in {self.num_intervals} slices, "
            f"{self.measured_windows}/{len(self.windows)} windows measured "
            f"({self.coverage:.1%} coverage, {self.cached_windows} cached)",
            f"  stitched IPC: {self.stitched_ipc:.4f} "
            f"± {self.ipc_ci95:.4f} (95% CI) "
            f"over ~{self.stitched_cycles} cycles",
        ]
        for w in self.windows:
            flag = "" if w.ok else f"  <-- {w.halted_reason or 'empty'}"
            lines.append(
                f"    window {w.index:>4} @ {w.start_instruction:>10}: "
                f"ipc {w.ipc:.4f} ({w.instructions} instr / "
                f"{w.cycles} cycles){flag}")
        return "\n".join(lines)


def stitch_windows(results: Sequence[SimResult], plan: SamplePlan,
                   total_instructions: int, *, target: str,
                   policy: CommitPolicy, backend: str,
                   ff_backend: str) -> SampleReport:
    """Fold per-window results into whole-program estimates.

    Estimated cycles: every measured slice costs
    ``slice_budget / ipc_k`` cycles at its own measured IPC (for the
    anchor slice the window *is* the whole slice, so its cycles count
    exactly); every unmeasured slice (and the sub-interval remainder)
    costs the mean *steady-state* IPC — the mean over measured windows
    excluding the anchor, whose start-up transient would otherwise
    drag estimates for warmed-up slices.  The error bar is the 95% CI
    of that mean, reported absolutely as ``ipc_ci95``.
    """
    if not results:
        raise SampleError("cannot stitch an empty window set")
    windows = tuple(sorted(
        (WindowMeasurement(
            index=int(r.details.get("window_index", -1)),
            start_instruction=int(r.details.get("start_instruction", 0)),
            instructions=r.instructions,
            cycles=r.cycles,
            halted_reason=r.halted_reason,
            checkpoint_digest=str(r.details.get("checkpoint_digest", "")),
            from_cache=r.from_cache,
        ) for r in results),
        key=lambda w: w.index))
    measured = [w for w in windows if w.ok]
    if not measured:
        raise SampleError(
            f"no window of {target!r} measured its full budget "
            f"(program too short for the plan?)")

    # Steady-state statistics exclude the anchor window: its start-up
    # transient is real (and counted exactly below) but it is not
    # representative of any other slice.
    steady = [w for w in measured if w.index != 0] or measured
    ipcs = [w.ipc for w in steady]
    m = len(ipcs)
    mean = sum(ipcs) / m
    variance = (sum((x - mean) ** 2 for x in ipcs) / (m - 1)) if m > 1 else 0.0
    std = math.sqrt(variance)
    ci95 = 1.96 * std / math.sqrt(m) if m > 1 else 0.0

    n = plan.num_intervals(total_instructions)
    budgets = {w.index: min(plan.interval,
                            total_instructions - w.start_instruction)
               for w in measured}
    measured_cycles = sum(budgets[w.index] / w.ipc for w in measured)
    rest = total_instructions - sum(budgets.values())
    est_cycles = measured_cycles + (rest / mean if rest > 0 else 0.0)
    stitched_ipc = total_instructions / est_cycles

    # Micro-architectural event estimates: per-instruction rates over
    # the measured windows, scaled to the whole budget.  This is the
    # whole-program leakage/MPKI story (fault counts, shadow hits,
    # cache misses) at sampling accuracy.
    measured_instructions = sum(w.instructions for w in measured)
    totals: Dict[str, int] = {}
    for r in results:
        if r.halted_reason != "budget":
            continue
        for key, value in r.counters.items():
            if isinstance(value, (int, float)) and key != "cycles":
                totals[key] = totals.get(key, 0) + value
    estimated = {
        key: int(round(value / measured_instructions * total_instructions))
        for key, value in sorted(totals.items())
    }
    estimated["cycles"] = int(round(est_cycles))

    return SampleReport(
        target=target,
        policy=policy,
        backend=backend,
        ff_backend=ff_backend,
        plan=plan,
        total_instructions=total_instructions,
        num_intervals=n,
        windows=windows,
        stitched_ipc=stitched_ipc,
        stitched_cycles=int(round(est_cycles)),
        ipc_mean=mean,
        ipc_std=std,
        ipc_ci95=ci95,
        estimated_counters=estimated,
    )


def sample_jobs(workload: Union[str, WorkloadProfile, WorkloadProgram],
                policy: CommitPolicy, plan: SamplePlan,
                total_instructions: int, *,
                spec: MachineSpec = MachineSpec(),
                backend: str = "cycle", ff_backend: str = "fast",
                warm: bool = True) -> List[SimJob]:
    """The full job fan-out of one sampled run (one job per window)."""
    wl = resolve_workload(workload)
    return [
        sample_job(wl.profile.name, policy, index, plan,
                   total_instructions, spec=spec, backend=backend,
                   ff_backend=ff_backend, warm=warm)
        for index in plan.select_windows(total_instructions)
    ]


def run_sample(executor, workload,
               policy: CommitPolicy = CommitPolicy.BASELINE,
               *, plan: Optional[SamplePlan] = None,
               total_instructions: int = 1_000_000,
               spec: MachineSpec = MachineSpec(),
               backend: str = "cycle", ff_backend: str = "fast",
               warm: bool = True) -> SampleReport:
    """Run one sampled simulation through an executor and stitch it."""
    plan = plan or SamplePlan()
    jobs = sample_jobs(workload, policy, plan, total_instructions,
                       spec=spec, backend=backend, ff_backend=ff_backend,
                       warm=warm)
    results = executor.run(jobs)
    return stitch_windows(results, plan, total_instructions,
                          target=jobs[0].target, policy=policy,
                          backend=backend, ff_backend=ff_backend)
