"""Sampling plans: how a long program is cut into measured windows.

A :class:`SamplePlan` describes SimPoint-style sampling declaratively:

* the program's execution is divided into fixed ``interval``-instruction
  slices;
* ``windows`` of those slices are selected (seeded, deterministic) as
  representative;
* each selected slice is measured by restoring the checkpoint at its
  boundary, running ``warmup`` instructions to warm the detailed core,
  then measuring ``window`` instructions.

The fast-forward scan (:func:`scan_checkpoints`) produces the boundary
checkpoints by streaming the program through the fast backend in
``interval``-sized budget segments, resuming each segment from the
previous one's recorded ``next_pc`` — so the scan is one continuous
execution, just with state freezes along the way.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.core.policy import CommitPolicy
from repro.errors import ConfigError, SampleError
from repro.machine import Machine
from repro.sample.checkpoint import Checkpoint
from repro.spec import MachineSpec
from repro.workloads.generator import WorkloadProgram, generate_program
from repro.workloads.profiles import WorkloadProfile, profile_by_name

DEFAULT_INTERVAL = 50_000
DEFAULT_WARMUP = 2_000
DEFAULT_WINDOWS = 8
DEFAULT_WINDOW = 10_000


@dataclasses.dataclass(frozen=True)
class SamplePlan:
    """The declarative shape of one sampled run.

    Attributes:
        interval: instructions per slice (checkpoint spacing).
        warmup: instructions run after restore, before measurement
            starts (warms predictor/caches on the measuring backend).
        windows: how many slices to measure.
        window: measured instructions per selected slice.
        seed: window-selection seed (deterministic; part of every
            sample job's cache identity).
    """

    interval: int = DEFAULT_INTERVAL
    warmup: int = DEFAULT_WARMUP
    windows: int = DEFAULT_WINDOWS
    window: int = DEFAULT_WINDOW
    seed: int = 0

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigError(f"interval must be >= 1, got {self.interval}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.windows < 1:
            raise ConfigError(f"windows must be >= 1, got {self.windows}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.warmup + self.window > self.interval:
            raise ConfigError(
                f"warmup + window ({self.warmup} + {self.window}) must fit "
                f"inside one interval ({self.interval}) so measured windows "
                f"never overlap the next slice")

    def num_intervals(self, total_instructions: int) -> int:
        """Whole slices in a ``total_instructions``-long run (>= 1)."""
        if total_instructions < 1:
            raise ConfigError("total instruction budget must be >= 1")
        return max(1, total_instructions // self.interval)

    def select_windows(self, total_instructions: int) -> Tuple[int, ...]:
        """The slice indices this plan measures, ascending.

        When the plan asks for at least as many windows as there are
        slices, every slice is measured (sampling degenerates to full
        coverage).  Otherwise slice 0 is always selected (the anchor)
        and the remaining slices are cut into ``windows - 1`` strata
        with a seeded draw picking one slice per stratum — stratified
        sampling keeps the selection spread across the whole run, where
        a plain uniform draw can clump (or miss the start-up transient
        entirely).  The selection is deterministic for (seed, interval,
        total), so every process (and every cache lookup) agrees on it.
        """
        n = self.num_intervals(total_instructions)
        if self.windows >= n:
            return tuple(range(n))
        rng = random.Random(self.seed)
        # Slice 0 is the anchor: the start-up transient (cold caches,
        # untrained predictors) is the one region guaranteed to behave
        # unlike the rest of the run, so it is always measured — whole,
        # see window_span() — rather than left to the steady-state mean.
        chosen = [0]
        rest = n - 1
        strata = self.windows - 1
        for stratum in range(strata):
            lo = 1 + stratum * rest // strata
            hi = 1 + (stratum + 1) * rest // strata
            chosen.append(rng.randrange(lo, hi))
        return tuple(chosen)

    def window_span(self, index: int,
                    total_instructions: int) -> Tuple[int, int]:
        """``(warmup, measured)`` instruction budgets for one slice.

        The anchor slice (index 0) is measured whole — no warmup and a
        window spanning the entire interval — because the start-up
        transient decays *within* the slice, so no sub-window of it
        extrapolates honestly; every later slice gets the plan's
        ``warmup`` + ``window`` treatment from its boundary checkpoint.
        """
        if index == 0:
            return 0, min(self.interval, total_instructions)
        return self.warmup, self.window

    def to_params(self) -> Dict[str, int]:
        """The plan as flat job params (all five knobs, cache-hashed)."""
        return {
            "interval": self.interval,
            "warmup": self.warmup,
            "windows": self.windows,
            "window": self.window,
            "seed": self.seed,
        }

    @classmethod
    def from_params(cls, params) -> "SamplePlan":
        return cls(interval=int(params["interval"]),
                   warmup=int(params["warmup"]),
                   windows=int(params["windows"]),
                   window=int(params["window"]),
                   seed=int(params["seed"]))

    def describe(self) -> str:
        return (f"interval={self.interval} warmup={self.warmup} "
                f"windows={self.windows}x{self.window} seed={self.seed}")


def resolve_workload(
        workload: Union[str, WorkloadProfile, WorkloadProgram],
) -> WorkloadProgram:
    """Normalize any accepted workload designator to a generated program."""
    if isinstance(workload, str):
        workload = profile_by_name(workload)
    if isinstance(workload, WorkloadProfile):
        workload = generate_program(workload)
    return workload


def scan_checkpoints(workload: Union[str, WorkloadProfile, WorkloadProgram],
                     plan: SamplePlan,
                     wanted: Iterable[int],
                     *,
                     spec: MachineSpec = MachineSpec(),
                     policy: CommitPolicy = CommitPolicy.BASELINE,
                     ff_backend: str = "fast",
                     warm: bool = True) -> Dict[int, Checkpoint]:
    """Fast-forward and freeze the checkpoints at the wanted boundaries.

    ``wanted`` are slice indices: index ``k`` gets the checkpoint taken
    after exactly ``k * plan.interval`` committed instructions (``k=0``
    is the synthetic start-of-program checkpoint).  The scan runs on one
    persistent machine using the ``ff_backend`` (the fast-functional
    backend by default) and stops after the highest wanted index.

    Architectural state is backend- and policy-independent, so
    checkpoints scanned by the fast backend restore onto the cycle core
    bit-exactly whatever ``policy`` says.  *Warm* state is not: which
    lines a policy lets into the committed caches depends on the policy
    (WFB/WFC quarantine speculative fills), so the scan machine runs
    under the policy whose windows the checkpoints will seed —
    baseline-warm caches restored into a WFC window measure optimistic
    IPC.

    Raises :class:`~repro.errors.SampleError` when the program halts
    before a wanted boundary (the plan oversampled the program's
    length).
    """
    wanted = sorted(set(wanted))
    if not wanted or wanted[0] < 0:
        raise ConfigError(f"wanted slice indices must be >= 0, got {wanted}")
    wl = resolve_workload(workload)
    machine = Machine.from_spec(spec, policy=policy,
                                backend=ff_backend)
    wl.apply_memory_image(machine)

    checkpoints: Dict[int, Checkpoint] = {}
    if wanted[0] == 0:
        checkpoints[0] = Checkpoint.initial(machine, wl.program)
        wanted = wanted[1:]

    executed = 0
    faults = 0
    next_pc: Optional[int] = None
    registers: Optional[Dict[int, int]] = None
    for k in wanted:
        target = k * plan.interval
        result = machine.run(
            wl.program,
            max_instructions=target - executed,
            start_pc=next_pc,
            initial_registers=registers,
        )
        executed += result.instructions
        faults += len(result.fault_events)
        if result.halted_reason != "budget" or result.next_pc is None:
            raise SampleError(
                f"program {wl.profile.name!r} ended "
                f"({result.halted_reason!r} after {executed} instructions) "
                f"before slice {k} at {target}; shrink the plan's interval "
                f"or total budget")
        next_pc = result.next_pc
        registers = dict(enumerate(result.registers))
        checkpoints[k] = Checkpoint.capture(
            machine,
            instructions=executed,
            next_pc=next_pc,
            registers=result.registers,
            faults=faults,
            warm=warm,
        )
    return checkpoints
