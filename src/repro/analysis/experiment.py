"""FigureRunner: one simulation per (workload, policy), shared by all
figures.

Every performance figure in the paper (Figures 6-9 and 11-16) is a
per-benchmark series derived from the same simulations, so the runner
describes each (workload, policy) pair as a
:class:`~repro.exec.job.SimJob`, runs it through a
:class:`~repro.api.session.Session` (whose executor and result cache
decide how), and memoizes the resulting
:class:`~repro.exec.job.SimResult` for the figure derivations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.policy import CommitPolicy
from repro.exec.job import SimJob, SimResult, workload_job
from repro.spec import MachineSpec
from repro.statistics import geometric_mean
from repro.workloads.profiles import suite_names
from repro.workloads.suite import DEFAULT_INSTRUCTION_BUDGET

if TYPE_CHECKING:
    from repro.api.session import Session

AVERAGE = "Average"

# Policies every full figure regeneration needs: the protected variants
# plus the insecure baseline Figures 11/12/14 normalize against.
FIGURE_POLICIES = (CommitPolicy.BASELINE, CommitPolicy.WFB,
                   CommitPolicy.WFC)


class FigureRunner:
    """Runs the suite under each policy and derives the figure series.

    Each figure method returns an ordered ``{benchmark: value}`` dict,
    with an ``Average`` entry appended (arithmetic mean for rates/sizes,
    geometric mean for normalized IPC — matching the paper).

    Simulations run through ``session`` (a
    :class:`~repro.api.session.Session`; :meth:`Session.experiment`
    builds a runner on itself).
    """

    def __init__(self, session: Session,
                 benchmarks: Optional[List[str]] = None,
                 instructions: int = DEFAULT_INSTRUCTION_BUDGET,
                 spec: MachineSpec = MachineSpec(),
                 backend: str = "cycle") -> None:
        self.session = session
        self.benchmarks = benchmarks or suite_names()
        self.instructions = instructions
        self.spec = spec
        self.backend = backend
        self._memo: Dict[Tuple[str, CommitPolicy], SimResult] = {}

    def job_for(self, benchmark: str, policy: CommitPolicy) -> SimJob:
        """The job spec describing one (benchmark, policy) simulation."""
        return workload_job(benchmark, policy,
                            instructions=self.instructions,
                            spec=self.spec, backend=self.backend)

    def run(self, benchmark: str, policy: CommitPolicy) -> SimResult:
        """Run (or fetch from cache) one benchmark under one policy."""
        key = (benchmark, policy)
        if key not in self._memo:
            job = self.job_for(benchmark, policy)
            self._memo[key] = self.session.run([job])[0]
        return self._memo[key]

    def _ensure(self, policies: Sequence[CommitPolicy]) -> None:
        """Memoize every (benchmark, policy) pair, as one session batch.

        Every figure method calls this before deriving its series, so a
        parallel session always sees the figure's whole sweep at once
        instead of one job at a time.
        """
        missing = [(name, policy) for policy in policies
                   for name in self.benchmarks
                   if (name, policy) not in self._memo]
        if not missing:
            return
        jobs = [self.job_for(name, policy) for name, policy in missing]
        for key, result in zip(missing, self.session.run(jobs)):
            self._memo[key] = result

    def run_all(self, policies: Sequence[CommitPolicy] = FIGURE_POLICIES
                ) -> List[SimResult]:
        """Submit every outstanding (benchmark, policy) pair as one batch.

        The figure methods batch their own sweeps; this prefetches a
        multi-policy matrix up front (the CLI regenerating every figure,
        the benchmark harness) so even the first figure pays for nothing
        beyond its own derivation.
        """
        self._ensure(policies)
        return [self._memo[(name, policy)] for policy in policies
                for name in self.benchmarks]

    # ------------------------------------------------------------------
    # Figures 6-9: shadow-structure sizing (p99.99 occupancy)
    # ------------------------------------------------------------------

    def shadow_sizing(self, structure: str, policy: CommitPolicy,
                      fraction: float = 0.9999) -> Dict[str, float]:
        """Shadow size covering ``fraction`` of cycles for each benchmark.

        ``structure`` is one of ``shadow_icache`` (Fig. 6),
        ``shadow_dcache`` (Fig. 7), ``shadow_itlb`` (Fig. 8),
        ``shadow_dtlb`` (Fig. 9).
        """
        self._ensure([policy])
        series = {}
        for name in self.benchmarks:
            run = self.run(name, policy)
            series[name] = float(
                run.shadow_size_percentile(structure, fraction))
        series[AVERAGE] = _mean(series)
        return series

    # ------------------------------------------------------------------
    # Figure 11: normalized IPC
    # ------------------------------------------------------------------

    def normalized_ipc(self, policy: CommitPolicy = CommitPolicy.WFC
                       ) -> Dict[str, float]:
        """IPC under ``policy`` normalized to the insecure baseline."""
        self._ensure([CommitPolicy.BASELINE, policy])
        series = {}
        for name in self.benchmarks:
            baseline = self.run(name, CommitPolicy.BASELINE)
            protected = self.run(name, policy)
            series[name] = (protected.ipc / baseline.ipc
                            if baseline.ipc else 0.0)
        series[AVERAGE] = geometric_mean(
            [v for k, v in series.items() if k != AVERAGE and v > 0])
        return series

    # ------------------------------------------------------------------
    # Figures 12-15: miss rates and shadow hit fractions
    # ------------------------------------------------------------------

    def _series(self, policy: CommitPolicy, metric) -> Dict[str, float]:
        """A per-benchmark series of ``metric`` with its Average row."""
        self._ensure([policy])
        series = {name: metric(self.run(name, policy))
                  for name in self.benchmarks}
        series[AVERAGE] = _mean(series)
        return series

    def dcache_miss_rates(self, policy: CommitPolicy) -> Dict[str, float]:
        """Figure 12 series: d-cache read miss rate (shadow-inclusive)."""
        return self._series(policy, lambda run: run.dcache_read_miss_rate)

    def shadow_dcache_hits(self, policy: CommitPolicy = CommitPolicy.WFC
                           ) -> Dict[str, float]:
        """Figure 13 series: fraction of read hits on the shadow d-cache."""
        return self._series(policy,
                            lambda run: run.dcache_shadow_hit_fraction)

    def icache_miss_rates(self, policy: CommitPolicy) -> Dict[str, float]:
        """Figure 14 series: i-cache miss rate (shadow-inclusive)."""
        return self._series(policy, lambda run: run.icache_miss_rate)

    def shadow_icache_hits(self, policy: CommitPolicy = CommitPolicy.WFC
                           ) -> Dict[str, float]:
        """Figure 15 series: fraction of fetch hits on the shadow i-cache."""
        return self._series(policy,
                            lambda run: run.icache_shadow_hit_fraction)

    # ------------------------------------------------------------------
    # Figure 16: shadow commit rate
    # ------------------------------------------------------------------

    def shadow_commit_rates(self, structure: str,
                            policy: CommitPolicy = CommitPolicy.WFC
                            ) -> Dict[str, float]:
        """Figure 16 series: committed fraction of retired shadow entries."""
        return self._series(
            policy, lambda run: run.shadow_commit_rate(structure))


def _mean(series: Dict[str, float]) -> float:
    values = [v for k, v in series.items() if k != AVERAGE]
    return sum(values) / len(values) if values else 0.0
