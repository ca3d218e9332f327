"""Executors: run a batch of :class:`SimJob` serially or in parallel.

Both executors share the same contract: ``run(jobs)`` returns one
:class:`SimResult` per job, in submission order, consulting the attached
cache before simulating and persisting every fresh result afterwards.

The :class:`ParallelExecutor` fans uncached jobs out over a
``multiprocessing`` pool.  Workers rebuild the whole machine state from
the job spec (the simulator is deterministic given a spec), so results
are bit-identical to a serial run.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

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


class SerialExecutor:
    """Runs every job in this process, in submission order."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        self.cache = cache if cache is not None else NullCache()
        self.progress = progress

    def run(self, jobs: Sequence[SimJob]) -> List[SimResult]:
        results: List[Optional[SimResult]] = [None] * len(jobs)
        for index, job in enumerate(jobs):
            result = self.cache.get(job)
            if result is None:
                result = execute_job(job)
                self.cache.put(job, result)
            results[index] = result
            if self.progress:
                self.progress(index + 1, len(jobs), job, result)
        return results  # type: ignore[return-value]


class ParallelExecutor:
    """Fans uncached jobs out over a ``multiprocessing`` pool.

    ``workers`` bounds the pool size.  With one worker (or one runnable
    task) the batch degrades to in-process serial execution, so the
    executor is always safe to use.
    """

    def __init__(self, workers: int = 2,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache = cache if cache is not None else NullCache()
        self.progress = progress

    def run(self, jobs: Sequence[SimJob]) -> List[SimResult]:
        total = len(jobs)
        results: List[Optional[SimResult]] = [None] * total
        done = 0

        pending: _IndexedJobs = []
        for index, job in enumerate(jobs):
            cached = self.cache.get(job)
            if cached is not None:
                results[index] = cached
                done += 1
                if self.progress:
                    self.progress(done, total, job, cached)
            else:
                pending.append((index, job))

        for index, result in self._dispatch(pending):
            self.cache.put(jobs[index], result)
            results[index] = result
            done += 1
            if self.progress:
                self.progress(done, total, jobs[index], result)
        return results  # type: ignore[return-value]

    def _dispatch(self, pending: _IndexedJobs
                  ) -> Iterator[Tuple[int, SimResult]]:
        if not pending:
            return
        workers = min(self.workers, len(pending))
        if workers <= 1:
            for indexed_job in pending:
                yield _run_indexed(indexed_job)
            return
        import multiprocessing  # only parallel runs pay for the import
        context = multiprocessing.get_context()
        with context.Pool(processes=workers) as pool:
            # Streamed so progress lines appear as jobs complete.
            yield from pool.imap_unordered(_run_indexed, pending)


def make_executor(workers: int = 1, cache: Optional[ResultCache] = None,
                  progress: Optional[ProgressFn] = None):
    """The executor the CLI flags describe: parallel iff ``workers > 1``."""
    if workers > 1:
        return ParallelExecutor(workers=workers, cache=cache,
                                progress=progress)
    return SerialExecutor(cache=cache, progress=progress)


def _run_indexed(indexed_job: Tuple[int, SimJob]
                 ) -> Tuple[int, SimResult]:
    """Worker entry point: run one job, keeping its submission index."""
    index, job = indexed_job
    return index, execute_job(job)
