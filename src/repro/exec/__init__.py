"""Simulation service layer: declarative jobs, caching, and execution.

Every experiment consumer (figures, security matrix, CLI, benchmarks)
describes its simulations as :class:`~repro.exec.job.SimJob` values and
submits them through one :class:`~repro.exec.executor.Executor`:

* :class:`~repro.exec.job.SimJob` / :class:`~repro.exec.job.SimResult` —
  a content-hashable description of one simulation and its
  JSON-serializable outcome; :func:`~repro.exec.job.workload_job` and
  :func:`~repro.exec.job.attack_job` build validated jobs.
* :class:`~repro.exec.cache.ResultCache` — a persistent on-disk result
  store keyed by the job hash, so repeated invocations skip completed
  runs.
* :class:`~repro.exec.executor.Executor` — runs a batch of jobs
  in-process with one worker, or fanned out over a ``multiprocessing``
  pool with more (workers rebuild all machine state from the job spec).

This package is the transport layer; the user-facing surface on top of
it is :mod:`repro.api` (:class:`~repro.api.session.Session` owns an
executor + cache pair, :class:`~repro.api.sweep.Sweep` expands
declarative grids into job batches).
"""

from repro.exec.cache import (NullCache, ResultCache, default_cache_dir)
from repro.exec.executor import Executor, execute_job, stderr_progress
from repro.exec.job import (SCHEMA_VERSION, SimJob, SimResult, attack_job,
                            workload_job)

__all__ = [
    "SCHEMA_VERSION",
    "Executor",
    "NullCache",
    "ResultCache",
    "SimJob",
    "SimResult",
    "attack_job",
    "default_cache_dir",
    "execute_job",
    "stderr_progress",
    "workload_job",
]
