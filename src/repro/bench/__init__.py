"""Performance benchmarking: timed simulator runs and determinism checks.

The bench subsystem times the simulator and checks what one run can
check on its own.  It has two halves:

* :mod:`repro.bench.harness` — runs a fixed set of simulation specs
  (deterministic :class:`~repro.exec.job.SimJob` keys from
  :mod:`repro.api`) under wall-clock timing with warmup and repeats, and
  emits a schema-versioned ``BENCH_<rev>.json`` payload;
* :mod:`repro.bench.compare` — checks a payload's job keys and
  simulated cycles against the committed timing-free fingerprint
  (``benchmarks/baseline.json``), and pairs fast rows with their
  cycle twins in the same payload for the backend speedup.

Whether a change made the simulator faster or slower is judged by
same-host parent/change pairs in ``perfbench/``, not here.
"""

from repro.bench.compare import (ComparisonReport, backend_speedups,
                                 compare_payloads, render_speedups)
from repro.bench.harness import (BENCH_SCHEMA_VERSION, BenchHarness,
                                 BenchSpec, FULL_SPECS, QUICK_SPECS,
                                 inst_per_sec, payload_fingerprint,
                                 with_backend)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchHarness",
    "BenchSpec",
    "ComparisonReport",
    "FULL_SPECS",
    "QUICK_SPECS",
    "backend_speedups",
    "compare_payloads",
    "inst_per_sec",
    "payload_fingerprint",
    "render_speedups",
    "with_backend",
]
