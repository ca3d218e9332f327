"""The executor: run a batch of :class:`SimJob` values.

``Executor.run(jobs)`` returns one :class:`SimResult` per job, in
submission order, consulting the attached cache before simulating and
persisting every fresh result afterwards.

With one worker each job is looked up, run and reported in submission
order, in this process.  With more, uncached jobs fan out over a
``multiprocessing`` pool.  Workers rebuild the whole machine state from
the job spec (the simulator is deterministic given a spec), so results
are bit-identical to a one-worker run.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.exec.cache import NullCache, ResultCache
from repro.exec.job import ATTACK, SAMPLE, VERIFY, SimJob, SimResult

# (completed count, total, job, result) -> None
ProgressFn = Callable[[int, int, SimJob, SimResult], None]

_IndexedJobs = List[Tuple[int, SimJob]]


def execute_job(job: SimJob) -> SimResult:
    """Run one job from scratch in this process (no cache involved)."""
    # Imported lazily: the workload/attack layers themselves build jobs
    # through repro.exec, so a module-level import would cycle.
    if job.kind == ATTACK:
        from repro.attacks.runner import run_attack_job

        return run_attack_job(job)
    if job.kind == VERIFY:
        from repro.verify.harness import run_verify_job

        return run_verify_job(job)
    if job.kind == SAMPLE:
        from repro.sample.driver import run_sample_job

        return run_sample_job(job)
    from repro.workloads.suite import run_workload_job

    return run_workload_job(job)


def stderr_progress(done: int, total: int, job: SimJob,
                    result: SimResult) -> None:
    """Default progress reporter: one line per completed job."""
    source = "cached" if result.from_cache else "simulated"
    print(f"[{done}/{total}] {job.describe()} ({source})",
          file=sys.stderr, flush=True)


class Executor:
    """Runs job batches on ``workers`` processes through ``cache``.

    ``progress`` is called once per completed job, cached or fresh.
    Only a batch with two or more uncached jobs on two or more workers
    starts a pool (and imports ``multiprocessing``).
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = cache if cache is not None else NullCache()
        self.progress = progress

    def run(self, jobs: Sequence[SimJob]) -> List[SimResult]:
        total = len(jobs)
        results: List[Optional[SimResult]] = [None] * total
        done = 0

        def finish(index: int, result: SimResult) -> None:
            nonlocal done
            results[index] = result
            done += 1
            if self.progress:
                self.progress(done, total, jobs[index], result)

        pending: _IndexedJobs = []
        for index, job in enumerate(jobs):
            result = self.cache.get(job)
            if result is None and self.workers > 1:
                pending.append((index, job))
                continue
            if result is None:
                result = execute_job(job)
                self.cache.put(job, result)
            finish(index, result)

        for index, result in self._fan_out(pending):
            self.cache.put(jobs[index], result)
            finish(index, result)
        return results  # type: ignore[return-value]

    def _fan_out(self, pending: _IndexedJobs
                 ) -> Iterator[Tuple[int, SimResult]]:
        if len(pending) < 2:
            yield from map(_run_indexed, pending)
            return
        import multiprocessing
        context = multiprocessing.get_context()
        with context.Pool(processes=min(self.workers, len(pending))) as pool:
            # Streamed so progress lines appear as jobs complete.
            yield from pool.imap_unordered(_run_indexed, pending)


def _run_indexed(indexed_job: Tuple[int, SimJob]
                 ) -> Tuple[int, SimResult]:
    """Worker entry point: run one job, keeping its submission index."""
    index, job = indexed_job
    return index, execute_job(job)
