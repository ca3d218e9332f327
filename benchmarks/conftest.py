"""Shared fixtures for the figure/table shape checks.

Run them with ``python -m pytest benchmarks/bench_*.py -q`` (the files
are named ``bench_*.py`` so the tier-1 suite does not collect them).
One :class:`~repro.analysis.experiment.FigureRunner` is shared by
every check so each (workload, policy) simulation runs exactly once per
session; the first check to need a policy pays for its simulations.

The runner is a thin client of :class:`repro.api.session.Session`, so
the sweep itself is tunable without editing the benches:

* ``REPRO_BENCH_JOBS=N`` fans the simulations out over N worker
  processes.
* ``REPRO_BENCH_CACHE_DIR=DIR`` backs the sweep with the persistent
  result cache, letting repeated sessions skip completed
  simulations (leave it unset to always measure fresh runs).
"""

import os

import pytest

from repro.api.session import Session

# Per-run instruction budget.  Large enough for stable rates/percentiles,
# small enough that the full 22-benchmark x 3-policy sweep stays in the
# minutes range.
BENCH_INSTRUCTIONS = 8_000


@pytest.fixture(scope="session")
def runner():
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    session = Session(jobs=jobs, cache=cache_dir is not None,
                      cache_dir=cache_dir)
    runner = session.experiment(instructions=BENCH_INSTRUCTIONS)
    if jobs > 1:
        # Figure methods batch per policy; prefetching the whole
        # three-policy sweep here gives the pool the widest batch and
        # charges it to fixture setup rather than the first check.
        runner.run_all()
    return runner
