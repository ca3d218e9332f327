"""Synthetic SPEC CPU2017-like workload suite.

The paper evaluates on 21 SPEC CPU2017 benchmarks.  SPEC is proprietary
and a full-system simulator is out of scope, so the suite is replaced by
21 seeded synthetic programs whose parameters (working-set size, pointer
chasing, branch entropy, code footprint, instruction mix) are chosen to
mimic each benchmark's published character.  See DESIGN.md for the
substitution rationale.
"""

from repro.workloads.profiles import (WorkloadProfile, SUITE_PROFILES,
                                      profile_by_name, suite_names)
from repro.workloads.generator import generate_program, WorkloadProgram
from repro.workloads.suite import run_workload, run_workload_job

__all__ = [
    "SUITE_PROFILES",
    "WorkloadProfile",
    "WorkloadProgram",
    "generate_program",
    "profile_by_name",
    "run_workload",
    "run_workload_job",
    "suite_names",
]
