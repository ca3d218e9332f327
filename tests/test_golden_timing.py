"""Golden timing regression tests for both execution backends.

``test_golden_states.py`` pins *architectural* results; nothing there
notices a core that retires the same instructions a few cycles early or
late.  This module pins the micro-architectural outcome instead: the
cycle count, the full ``counters`` dict and every shadow-occupancy
histogram of three suite workloads under each commit policy, on the
cycle core (``workload/<name>/<policy>``) and on the fast backend
(``workload/<name>/<policy>/fast``), plus every registered attack's
cycle-backend result (verdict and details, which carry the victim's
cycle counts).  Cycles must not change while a job's key is unchanged.

To regenerate after an intentional timing change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_timing.py
"""

import json
import os
import pathlib

import pytest

from repro.api.registry import attack_names
from repro.attacks.runner import run_attack_by_name
from repro.core.policy import CommitPolicy
from repro.workloads.suite import run_workload

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_timing.json"

WORKLOADS = ("mcf", "namd", "povray")
INSTRUCTIONS = 4000
POLICIES = (CommitPolicy.BASELINE, CommitPolicy.WFB, CommitPolicy.WFC)
BACKENDS = ("cycle", "fast")


def _workload_key(name: str, policy: CommitPolicy, backend: str) -> str:
    # Cycle-core keys predate the fast backend's and carry no suffix.
    key = f"workload/{name}/{policy.value}"
    return key if backend == "cycle" else f"{key}/{backend}"


def _workload_timing(name: str, policy: CommitPolicy, backend: str) -> dict:
    run = run_workload(name, policy, instructions=INSTRUCTIONS,
                       backend=backend)
    return {
        "cycles": run.cycles,
        "instructions": run.instructions,
        "counters": run.counters,
        # JSON object keys are strings: store (value, count) pairs.
        "shadow_occupancy": {
            structure: [list(item) for item in buckets.items()]
            for structure, buckets in run.shadow_occupancy.items()},
    }


def _attack_timing(name: str, policy: CommitPolicy) -> dict:
    outcome = run_attack_by_name(name, policy)
    # Round-trip through JSON so tuples compare equal to fixture lists.
    return json.loads(json.dumps({
        "secret": outcome.secret,
        "leaked": outcome.leaked,
        "details": outcome.details,
    }))


def _check(key: str, state: dict) -> None:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        fixture = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
        fixture[key] = state
        FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True)
                           + "\n")
        pytest.skip(f"regenerated {key} in {FIXTURE.name}")
    fixture = json.loads(FIXTURE.read_text())
    assert key in fixture, f"{key} missing from {FIXTURE.name}"
    assert state == fixture[key]


@pytest.mark.parametrize("workload,policy,backend", [
    pytest.param(workload, policy, backend,
                 id=_workload_key(workload, policy, backend)
                 .removeprefix("workload/").replace("/", "-"))
    for backend in BACKENDS for workload in WORKLOADS for policy in POLICIES])
def test_workload_timing_matches_golden(workload, policy, backend):
    _check(_workload_key(workload, policy, backend),
           _workload_timing(workload, policy, backend))


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("attack", attack_names())
def test_attack_result_matches_golden(attack, policy):
    _check(f"attack/{attack}/{policy.value}", _attack_timing(attack, policy))
