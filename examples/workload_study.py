#!/usr/bin/env python
"""Run part of the SPEC-like suite and print the paper's figure series.

A smaller, faster version of the figure checks: picks a handful of
benchmarks, runs them under baseline and WFC, and prints the Figure 11
(normalized IPC), Figure 12/14 (miss rates) and Figure 7 (shadow
d-cache sizing) style tables.

Usage::

    python examples/workload_study.py [benchmark ...]
"""

import sys

from repro.analysis.report import (render_ipc_figure, render_two_series,
                                   render_figure_series)
from repro.api import Session
from repro.core.policy import CommitPolicy

DEFAULT_BENCHMARKS = ["mcf", "x264", "deepsjeng", "lbm", "gcc"]


def main() -> None:
    benchmarks = sys.argv[1:] or DEFAULT_BENCHMARKS
    session = Session(cache=False)
    runner = session.experiment(benchmarks=benchmarks,
                                instructions=10_000)

    print(render_ipc_figure(runner.normalized_ipc(CommitPolicy.WFC)))
    print()
    print(render_two_series(
        "Figure 12: d-cache read miss rate",
        "WFC", runner.dcache_miss_rates(CommitPolicy.WFC),
        "baseline", runner.dcache_miss_rates(CommitPolicy.BASELINE)))
    print()
    print(render_two_series(
        "Figure 14: i-cache miss rate",
        "WFC", runner.icache_miss_rates(CommitPolicy.WFC),
        "baseline", runner.icache_miss_rates(CommitPolicy.BASELINE)))
    print()
    print(render_figure_series(
        "Figure 7: shadow d-cache entries covering 99.99% of cycles",
        runner.shadow_sizing("shadow_dcache", CommitPolicy.WFC)))


if __name__ == "__main__":
    main()
