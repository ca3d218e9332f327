"""Performance benchmarking: timed simulator runs and regression gating.

The bench subsystem answers one question continuously: *how fast is the
cycle loop, and did a change slow it down?*  It has two halves:

* :mod:`repro.bench.harness` — runs a fixed set of simulation specs
  (deterministic :class:`~repro.exec.job.SimJob` keys from
  :mod:`repro.api`) under wall-clock timing with warmup and repeats, and
  emits a schema-versioned ``BENCH_<rev>.json`` payload.
* :mod:`repro.bench.compare` — compares a payload against a committed
  baseline (``benchmarks/baseline.json``) and flags slowdowns beyond a
  threshold; the CI ``bench-smoke`` job fails on >10% regressions.

Scores are normalised by a pure-Python calibration spin so the gate
tracks simulator efficiency (simulated cycles per unit of interpreter
work) rather than raw host speed.
"""

from repro.bench.compare import (ComparisonReport,
                                 annotate_calibration_drift,
                                 backend_speedups, compare_payloads,
                                 render_calibration_drift,
                                 render_speedups)
from repro.bench.harness import (BENCH_SCHEMA_VERSION, BenchHarness,
                                 BenchSpec, FULL_SPECS, QUICK_SPECS,
                                 payload_fingerprint, with_backend)
from repro.bench.sampled import render_sampled_rows, sampled_roundtrip

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchHarness",
    "BenchSpec",
    "ComparisonReport",
    "FULL_SPECS",
    "QUICK_SPECS",
    "annotate_calibration_drift",
    "backend_speedups",
    "compare_payloads",
    "payload_fingerprint",
    "render_calibration_drift",
    "render_sampled_rows",
    "render_speedups",
    "sampled_roundtrip",
    "with_backend",
]
