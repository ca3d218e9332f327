"""Simulation service layer: declarative jobs, caching, and execution.

Every experiment consumer (figures, security matrix, CLI, benchmarks)
describes its simulations as :class:`~repro.exec.job.SimJob` values and
submits them through an executor:

* :class:`~repro.exec.job.SimJob` / :class:`~repro.exec.job.SimResult` —
  a content-hashable description of one simulation and its
  JSON-serializable outcome.
* :class:`~repro.exec.cache.ResultCache` — a persistent on-disk result
  store keyed by the job hash, so repeated invocations skip completed
  runs.
* :class:`~repro.exec.executor.SerialExecutor` /
  :class:`~repro.exec.executor.ParallelExecutor` — run a batch of jobs
  in-process or fanned out over a ``multiprocessing`` pool (workers
  rebuild all machine state from the job spec).

This package is the transport layer; the user-facing surface on top of
it is :mod:`repro.api` (:class:`~repro.api.session.Session` owns an
executor + cache pair, :class:`~repro.api.scenario.Sweep` expands
declarative grids into job batches).
"""

from repro.exec.cache import (NullCache, ResultCache, default_cache_dir)
from repro.exec.executor import (ParallelExecutor, SerialExecutor,
                                 execute_job, make_executor,
                                 stderr_progress)
from repro.exec.job import (SCHEMA_VERSION, FigureMetrics, SimJob,
                            SimResult, attack_job, workload_job)

__all__ = [
    "SCHEMA_VERSION",
    "FigureMetrics",
    "NullCache",
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "SimJob",
    "SimResult",
    "attack_job",
    "default_cache_dir",
    "execute_job",
    "make_executor",
    "stderr_progress",
    "workload_job",
]
