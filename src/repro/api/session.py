"""The :class:`Session` facade: one object owning execution wiring.

Every entry point used to hand-wire its own cache and executor (the CLI,
:class:`~repro.analysis.experiment.FigureRunner`, the benchmark
harness, the examples) — and ``repro attack`` bypassed the exec layer
entirely.  A session owns that wiring once::

    session = Session(jobs=4, cache_dir="~/.cache/repro")
    matrix = session.matrix()                       # Tables III & IV
    figures = session.figures(benchmarks=["mcf"])   # Figures 6-9, 11-16
    result = session.sweep(Sweep(...))              # ablation grids
    report = session.sample("mcf")                  # sampled simulation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.scenario import Scenario, Sweep, SweepPoint
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.cache import NullCache, ResultCache
from repro.exec.executor import ProgressFn, make_executor
from repro.exec.job import DEFAULT_INSTRUCTION_BUDGET, SimJob, SimResult
from repro.spec import MachineSpec

# The matrix default: the paper's protected variants plus the insecure
# baseline they are compared against.
MATRIX_POLICIES = (CommitPolicy.BASELINE, CommitPolicy.WFB,
                   CommitPolicy.WFC)

Runnable = Union[Scenario, SimJob]


@dataclass
class SweepResult:
    """A completed sweep: grid points and their results, index-aligned."""

    points: List[SweepPoint]
    results: List[SimResult]

    def __iter__(self) -> Iterator[Tuple[SweepPoint, SimResult]]:
        return iter(zip(self.points, self.results))

    def __len__(self) -> int:
        return len(self.results)

    def result(self, benchmark: str, policy: CommitPolicy,
               variant: str = "default",
               spec: str = "default") -> SimResult:
        """The result at one grid cell."""
        for point, result in self:
            if (point.benchmark == benchmark and point.policy == policy
                    and point.variant == variant and point.spec == spec):
                return result
        raise ConfigError(
            f"no sweep point {benchmark}/{policy.value}/{variant}/{spec}")

    @property
    def cached_count(self) -> int:
        """How many cells were served from the result cache."""
        return sum(1 for result in self.results if result.from_cache)


class Session:
    """Owns the executor + cache pair every batch API runs through.

    Arguments:
        jobs: worker processes (``> 1`` fans batches out over a
            ``multiprocessing`` pool with bit-identical results).
        cache: back the session with the persistent result cache
            (default); ``False`` simulates everything fresh.
        cache_dir: cache location (default ``$REPRO_CACHE_DIR`` or
            ``~/.cache/repro``).
        progress: per-completed-job callback (see
            :data:`~repro.exec.executor.ProgressFn`).
        executor: bring-your-own executor; overrides every other
            argument and supplies its own cache.
    """

    def __init__(self, jobs: int = 1, cache: bool = True,
                 cache_dir: Optional[str] = None,
                 progress: Optional[ProgressFn] = None,
                 executor: Any = None) -> None:
        if executor is not None:
            self.executor = executor
            attached = getattr(executor, "cache", None)
            self.cache = attached if attached is not None else NullCache()
        else:
            self.cache = ResultCache(cache_dir) if cache else NullCache()
            self.executor = make_executor(workers=jobs, cache=self.cache,
                                          progress=progress)

    # -- generic execution -------------------------------------------------

    def run(self, scenarios: Iterable[Runnable]) -> List[SimResult]:
        """Run a batch of scenarios (or raw jobs), in submission order."""
        jobs = [item.job() if isinstance(item, Scenario) else item
                for item in scenarios]
        return self.executor.run(jobs)

    # -- the batch products ------------------------------------------------

    def matrix(self, attacks: Optional[Sequence[str]] = None,
               policies: Optional[Sequence[CommitPolicy]] = None,
               secret: int = 42,
               spec: MachineSpec = MachineSpec(),
               backend: str = "cycle"
               ) -> Dict[str, Dict[str, Any]]:
        """Every (attack, policy) outcome — the paper's Tables III & IV.

        ``spec`` selects the victim machine's hardware shape and
        ``backend`` the execution backend for every cell.  Returns
        ``{attack_name: {policy_value: AttackResult}}`` in registry
        (table) order.
        """
        from repro.api.registry import ATTACKS
        from repro.attacks.runner import attack_result_from_sim

        names = list(attacks) if attacks is not None else ATTACKS.names()
        chosen = list(policies) if policies else list(MATRIX_POLICIES)
        scenarios = [Scenario.attack(name, policy, secret=secret, spec=spec,
                                     backend=backend)
                     for name in names for policy in chosen]
        results = self.run(scenarios)
        matrix: Dict[str, Dict[str, Any]] = {name: {} for name in names}
        for scenario, result in zip(scenarios, results):
            matrix[scenario.target][scenario.policy.value] = \
                attack_result_from_sim(result)
        return matrix

    def experiment(self, benchmarks: Optional[List[str]] = None,
                   instructions: int = DEFAULT_INSTRUCTION_BUDGET,
                   spec: MachineSpec = MachineSpec(),
                   backend: str = "cycle"):
        """A :class:`~repro.analysis.experiment.FigureRunner` whose
        simulations run through this session."""
        from repro.analysis.experiment import FigureRunner

        return FigureRunner(benchmarks=benchmarks,
                            instructions=instructions, session=self,
                            spec=spec, backend=backend)

    def figures(self, benchmarks: Optional[List[str]] = None,
                instructions: int = DEFAULT_INSTRUCTION_BUDGET,
                spec: MachineSpec = MachineSpec(),
                backend: str = "cycle"
                ) -> Dict[str, Dict[str, Any]]:
        """Every performance figure's series, keyed by figure number.

        Submits the whole (benchmark x policy) grid as one batch, so a
        parallel session fans the full sweep out at once; ``spec``
        selects the hardware shape (and ``backend`` the execution
        backend) for every simulation.
        """
        from repro.analysis.experiment import FIGURE_POLICIES
        from repro.analysis.report import figures_data

        runner = self.experiment(benchmarks, instructions, spec=spec,
                                 backend=backend)
        runner.run_all(FIGURE_POLICIES)
        return figures_data(runner)

    def sweep(self, sweep: Sweep) -> SweepResult:
        """Expand and run a :class:`~repro.api.scenario.Sweep` grid."""
        points = sweep.points()
        results = self.run(sweep.scenarios())
        return SweepResult(points=points, results=results)

    def verify(self, count: int = 10, seed: int = 0,
               policies: Optional[Sequence[CommitPolicy]] = None,
               profile: str = "mixed",
               instructions: int = DEFAULT_INSTRUCTION_BUDGET,
               spec: MachineSpec = MachineSpec(),
               backend: str = "cycle"):
        """Differentially verify ``count`` fuzzed programs (seeds
        ``seed .. seed+count-1``) against the in-order reference oracle
        under every policy, plus the SafeSpec leakage invariants.

        ``backend`` selects which execution backend is held to the
        oracle — ``"fast"`` runs the same cases through the
        fast-functional core (the cross-backend accuracy contract).

        Cases are ordinary jobs: a parallel session fans them out, and
        unchanged (profile, seed, policy, spec, backend) verdicts
        replay from the result cache.  Returns a
        :class:`~repro.verify.harness.VerifyReport`.
        """
        from repro.verify.harness import (VerifyReport, verdict_from_sim,
                                          verify_job)

        if count < 1:
            raise ConfigError("verify needs count >= 1")
        chosen = list(policies) if policies else list(MATRIX_POLICIES)
        jobs = [verify_job(s, policy, profile=profile,
                           instructions=instructions, spec=spec,
                           backend=backend)
                for s in range(seed, seed + count)
                for policy in chosen]
        results = self.executor.run(jobs)
        return VerifyReport(
            verdicts=[verdict_from_sim(result) for result in results])

    def sample(self, workload: str,
               policy: CommitPolicy = CommitPolicy.BASELINE,
               instructions: int = 1_000_000,
               interval: Optional[int] = None,
               warmup: Optional[int] = None,
               windows: Optional[int] = None,
               window: Optional[int] = None,
               seed: int = 0,
               warm: bool = True,
               spec: MachineSpec = MachineSpec(),
               backend: str = "cycle",
               ff_backend: str = "fast"):
        """Sampled (SimPoint-style) simulation of one long workload.

        The run is divided into ``interval``-instruction slices; a
        seeded selection of ``windows`` slices is measured on
        ``backend`` (``window`` instructions each, after ``warmup``
        instructions of cache/predictor warming), with the fast-forward
        between slice boundaries done once on ``ff_backend``.  Each
        window is an independent content-hashed job: a parallel session
        fans them out, and a repeated call is all cache hits.

        Returns a :class:`~repro.sample.driver.SampleReport` with the
        stitched whole-program IPC estimate and per-window error bars.
        """
        from repro.sample.driver import run_sample
        from repro.sample.plan import SamplePlan

        defaults = SamplePlan()
        plan = SamplePlan(
            interval=interval if interval is not None else defaults.interval,
            warmup=warmup if warmup is not None else defaults.warmup,
            windows=windows if windows is not None else defaults.windows,
            window=window if window is not None else defaults.window,
            seed=seed,
        )
        return run_sample(self.executor, workload, policy, plan=plan,
                          total_instructions=instructions, spec=spec,
                          backend=backend, ff_backend=ff_backend,
                          warm=warm)

    # -- cache introspection -----------------------------------------------

    @property
    def cache_stats(self) -> Dict[str, int]:
        return {"hits": self.cache.hits, "misses": self.cache.misses,
                "stores": self.cache.stores}

    def describe_cache(self) -> str:
        return self.cache.describe()
