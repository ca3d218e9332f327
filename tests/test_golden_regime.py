"""Golden pins for the regime the sampled experiments run in.

``test_golden_timing.py`` pins 4k-instruction cold-start runs on the
default machine.  Sampled runs live somewhere else: a fast-backend
checkpoint scan deep into the program, warm state captured at every
slice boundary, and a cycle-core window restored from it.  This module
pins that regime:

* per (mcf, namd) x (baseline, WFC): the digest of every checkpoint a
  100k-instruction scan produces (warm predictor, BTB, TLB and cache
  state included), and one measured cycle-core window restored from
  the deepest of them (cycles, counters, occupancy);
* one 4k-instruction run per backend on the ``little-core`` preset,
  the only geometry other than the default that a product runs.

To regenerate after an intentional change to simulated numbers::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_regime.py
"""

import json
import os
import pathlib

import pytest

from repro.core.policy import CommitPolicy
from repro.sample.driver import measure_window, sample_job
from repro.sample.plan import SamplePlan, scan_checkpoints
from repro.spec import get_spec
from repro.workloads.suite import run_workload

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_regime.json"

SCAN_WORKLOADS = ("mcf", "namd")
SCAN_POLICIES = (CommitPolicy.BASELINE, CommitPolicy.WFC)
# Nine 12.5k slices: the scan's last checkpoint is taken at 100k
# instructions, and every slice is selected.
PLAN = SamplePlan(interval=12_500, warmup=500, windows=9, window=2_000,
                  seed=3)
SLICES = 9
TOTAL = PLAN.interval * SLICES
LITTLE_CORE_INSTRUCTIONS = 4000
BACKENDS = ("cycle", "fast")


def _check(key: str, state: dict) -> None:
    # Round-trip through JSON so tuples compare equal to fixture lists.
    state = json.loads(json.dumps(state))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        fixture = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
        fixture[key] = state
        FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True)
                           + "\n")
        pytest.skip(f"regenerated {key} in {FIXTURE.name}")
    fixture = json.loads(FIXTURE.read_text())
    assert key in fixture, f"{key} missing from {FIXTURE.name}"
    assert state == fixture[key]


@pytest.mark.parametrize("policy", SCAN_POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("workload", SCAN_WORKLOADS)
def test_scan_and_window_match_golden(workload, policy):
    checkpoints = scan_checkpoints(workload, PLAN, range(SLICES),
                                   policy=policy)
    index = SLICES - 1
    job = sample_job(workload, policy, index, PLAN, TOTAL)
    window = measure_window(job, checkpoints[index])
    _check(f"scan/{workload}/{policy.value}", {
        "checkpoints": [checkpoints[k].digest() for k in range(SLICES)],
        "window": {
            "index": index,
            "start_instruction": window.details["start_instruction"],
            "cycles": window.cycles,
            "instructions": window.instructions,
            "counters": window.counters,
            "shadow_occupancy": {
                structure: sorted(histogram.items())
                for structure, histogram
                in window.shadow_occupancy.items()},
        },
    })


@pytest.mark.parametrize("backend", BACKENDS)
def test_little_core_run_matches_golden(backend):
    run = run_workload("mcf", CommitPolicy.WFC,
                       instructions=LITTLE_CORE_INSTRUCTIONS,
                       spec=get_spec("little-core"), backend=backend)
    _check(f"little-core/mcf/wfc/{backend}", {
        "cycles": run.cycles,
        "instructions": run.instructions,
        "counters": run.counters,
        "shadow_occupancy": {
            structure: sorted(buckets.items())
            for structure, buckets in run.shadow_occupancy.items()},
    })
