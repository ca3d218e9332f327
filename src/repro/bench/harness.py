"""Timed-run harness: wall-clock the simulator over fixed job specs.

Every spec lowers to the same declarative :class:`~repro.exec.job.SimJob`
the rest of the system runs (via :class:`~repro.api.scenario.Scenario`),
so the emitted payload carries the job's deterministic content hash —
two payloads produced from the same tree describe byte-identical
simulations, and only the timing fields differ.

Timing methodology:

* every spec is simulated ``warmup`` times untimed, then ``repeats``
  times timed; the reported wall-clock is the *fastest* repeat (system
  noise only ever adds time, so the minimum is the robust estimator);
* timed runs always simulate from scratch (:func:`execute_job`), never
  through the result cache — the cache would time a JSON read;
* each row's one rate is ``inst_per_sec``: simulated instructions over
  the fastest repeat.  It is only compared within one payload (the
  fast-vs-cycle speedup); speed across revisions is measured by
  same-host parent/change pairs in ``perfbench/``.

The result cache still participates for accounting: each spec's job is
looked up before timing and its fresh result stored after, so a
cache-backed session (``repro figures``) reuses bench simulations and
the payload records the hit/miss counts.
"""

from __future__ import annotations

import json
import statistics as _stats
import subprocess
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.scenario import Scenario
from repro.backends import DEFAULT_BACKEND
from repro.core.policy import CommitPolicy
from repro.exec.cache import NullCache
from repro.exec.executor import execute_job
from repro.exec.job import SimJob
from repro.spec import MachineSpec

# Bump when the payload layout changes incompatibly.
BENCH_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class BenchSpec:
    """One named, timed simulation.

    ``machine_spec`` selects the hardware shape (CLI ``--preset`` /
    ``--set``); attaching one changes the job key, so the comparator
    marks baseline rows stale rather than checking their cycles.
    ``backend`` selects the execution backend (``repro.backends``);
    non-default backends carry their name as a row-name suffix so
    cycle and fast rows coexist in one payload.
    """

    name: str
    benchmark: str
    policy: CommitPolicy
    instructions: int
    machine_spec: Optional[MachineSpec] = None
    backend: str = DEFAULT_BACKEND

    def scenario(self) -> Scenario:
        return Scenario.workload(self.benchmark, self.policy,
                                 instructions=self.instructions,
                                 spec=self.machine_spec,
                                 backend=self.backend)

    def job(self) -> SimJob:
        """The content-hashed job this spec times (see repro.api)."""
        return self.scenario().job()


def _specs(entries: Sequence[Tuple[str, CommitPolicy, int]]
           ) -> Tuple[BenchSpec, ...]:
    return tuple(
        BenchSpec(name=f"{bench}_{policy.value}_{instructions}",
                  benchmark=bench, policy=policy, instructions=instructions)
        for bench, policy, instructions in entries)


def with_backend(specs: Sequence[BenchSpec],
                 backend: str) -> Tuple[BenchSpec, ...]:
    """The same workload rows retargeted to another execution backend.

    Non-default backends get a ``_<backend>`` row-name suffix, keeping
    cycle and fast rows distinct in payloads and in the committed
    baseline.
    """
    if backend == DEFAULT_BACKEND:
        return tuple(specs)
    return tuple(replace(spec, backend=backend,
                         name=f"{spec.name}_{backend}")
                 for spec in specs)


# The CI smoke set: the Figure 11 IPC workload pair (insecure baseline
# vs WFC SafeSpec) over three suite benchmarks, small enough for a
# minutes-scale CI job.  benchmarks/baseline.json is generated from
# exactly this set (both backends).  The budget is large enough that
# per-job fixed costs (machine build, memory image, closure lowering)
# do not dominate the fast backend's wall time.
QUICK_SPECS = _specs([
    ("namd", CommitPolicy.BASELINE, 32_000),
    ("namd", CommitPolicy.WFC, 32_000),
    ("povray", CommitPolicy.BASELINE, 32_000),
    ("povray", CommitPolicy.WFC, 32_000),
    ("mcf", CommitPolicy.BASELINE, 32_000),
    ("mcf", CommitPolicy.WFC, 32_000),
])

# The fuller sweep for local performance work.
FULL_SPECS = QUICK_SPECS + _specs([
    ("xz", CommitPolicy.BASELINE, 8_000),
    ("xz", CommitPolicy.WFC, 8_000),
    ("perlbench", CommitPolicy.WFC, 8_000),
    ("xalancbmk", CommitPolicy.WFC, 8_000),
    ("namd", CommitPolicy.WFB, 8_000),
    ("povray", CommitPolicy.WFB, 8_000),
])


def git_revision(default: str = "local") -> str:
    """Short revision of the working tree, or ``default`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return default
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else default


class BenchHarness:
    """Times a set of :class:`BenchSpec` and assembles the payload."""

    def __init__(self, warmup: int = 1, repeats: int = 3,
                 cache: Optional[Any] = None,
                 rev: Optional[str] = None) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.warmup = warmup
        self.repeats = repeats
        self.cache = cache if cache is not None else NullCache()
        self.rev = rev if rev is not None else git_revision()

    def time_spec(self, spec: BenchSpec) -> Dict[str, Any]:
        """Run one spec (warmup + timed repeats) and report its row."""
        job = spec.job()
        # Cache accounting only: a prior result counts a hit, and the
        # fresh result is stored afterwards so figure sessions reuse it.
        self.cache.get(job)
        result = None
        for _ in range(self.warmup):
            result = execute_job(job)
        walls: List[float] = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            result = execute_job(job)
            walls.append(time.perf_counter() - start)
        self.cache.put(job, result)
        best_wall = min(walls)
        return {
            "name": spec.name,
            "benchmark": spec.benchmark,
            "policy": spec.policy.value,
            "instructions": spec.instructions,
            "backend": spec.backend,
            # Spec-less rows run the default machine, so they carry the
            # default spec's digest rather than null — every row names
            # the hardware shape it timed.
            "machine_spec_digest": (spec.machine_spec
                                    or MachineSpec()).short_digest(),
            "job_key": job.key(),
            "cycles": result.cycles,
            "sim_instructions": result.instructions,
            "wall_s": [round(w, 6) for w in walls],
            "best_wall_s": round(best_wall, 6),
            "median_wall_s": round(_stats.median(walls), 6),
            "inst_per_sec": round(result.instructions / best_wall, 1),
        }

    def run(self, specs: Sequence[BenchSpec],
            progress=None) -> Dict[str, Any]:
        """Time every spec and return the schema-versioned payload."""
        results = []
        for index, spec in enumerate(specs):
            row = self.time_spec(spec)
            results.append(row)
            if progress:
                progress(index + 1, len(specs), spec, row)
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "rev": self.rev,
            "warmup": self.warmup,
            "repeats": self.repeats,
            "results": results,
            "cache": {"hits": self.cache.hits,
                      "misses": self.cache.misses,
                      "stores": self.cache.stores},
        }


def payload_fingerprint(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic subset of a payload (no timing fields).

    Two payloads produced from the same tree have equal fingerprints;
    the determinism tests and cache-validity reasoning rely on this,
    and the committed ``benchmarks/baseline.json`` is exactly this.
    """
    return {
        "schema": payload["schema"],
        "results": [
            {"name": row["name"], "job_key": row["job_key"],
             "cycles": row["cycles"],
             "sim_instructions": row["sim_instructions"]}
            for row in payload["results"]],
    }


def inst_per_sec(row: Dict[str, Any]) -> float:
    """Simulated instructions per second of a row's fastest repeat.

    Computed from ``sim_instructions`` and ``best_wall_s``, which rows
    of every payload schema carry, so old snapshots rate the same way.
    """
    return float(row["sim_instructions"]) / float(row["best_wall_s"])


def dump_payload(payload: Dict[str, Any], path: str) -> None:
    """Write a payload as stable, sorted-key JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_payload(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)
