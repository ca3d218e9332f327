"""A fixed pure-Python kernel, timed between the jobs of every pass.

The benchmark's host is shared: the same pass can take 1.5x longer from
one minute to the next, and for a minute or more at a time, so no
statistic of raw pass times is steady across runs.  The whole
interpreter slows together, though not evenly: code that allocates
small objects and probes dicts swings further than plain integer
arithmetic, and the simulator sits between the two.  So the kernel runs
one loop of each, of about equal length, and a pass's job time divided
by the kernel's time in the same pass stays put while the host drifts.

The kernel is part of the benchmark, never of the simulator, so a change
to the simulator cannot change its time.  Its objects hold no cycles and
it runs with the garbage collector off, so the size of the simulator's
heap does not reach it.
"""

from __future__ import annotations

import gc
import time
from typing import Callable

KEYS = 1013
OBJECT_ROUNDS = 20_000
ARITH_ROUNDS = 150_000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def objects(rounds: int = OBJECT_ROUNDS) -> int:
    cells = {}
    acc = 0
    for i in range(rounds):
        cell = _Cell(i, i * 7 % KEYS)
        cells[cell.value] = cell
        probe = cells.get(i * 13 % KEYS)
        if probe is not None:
            acc += probe.key
    ordered = sorted(cells.values(), key=lambda c: c.key ^ 0x55)
    return acc + len(ordered)


def arith(rounds: int = ARITH_ROUNDS) -> int:
    acc = 0
    for i in range(rounds):
        acc = (acc * 31 + i) & 0xFFFFFF
    return acc


def time_kernel(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds one run of both loops takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        objects()
        arith()
        return clock() - start
    finally:
        if enabled:
            gc.enable()
