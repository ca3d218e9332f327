#!/usr/bin/env python
"""A ROB-size ablation in ten lines: declarative sweeps over the API.

``Sweep`` expands benchmarks x policies x named spec variants (dotted
``MachineSpec.derive`` paths) into a deterministic job grid;
``Session.sweep`` runs it (parallel workers, persistent result cache)
and returns the grid points paired with their results.  Re-running the
script is served entirely from the cache.

Usage::

    python examples/sweep_ablation.py
"""

from repro import CommitPolicy
from repro.api import Session, Sweep


def main() -> None:
    sweep = Sweep(benchmarks=["mcf", "xz"],
                  policies=[CommitPolicy.BASELINE, CommitPolicy.WFC],
                  instructions=4_000,
                  variants={f"rob{n}": {"core.rob_entries": n}
                            for n in (96, 128, 224)})
    session = Session(jobs=2)
    for point, run in session.sweep(sweep):
        print(f"{point.benchmark:4s} {point.policy.value:8s} "
              f"{point.variant:6s} IPC={run.ipc:.3f}")
    print(session.describe_cache())


if __name__ == "__main__":
    main()
