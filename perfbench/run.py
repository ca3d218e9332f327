"""Same-host product benchmark for the SafeSpec reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the simulator is imported from
``src/``.  Workloads (see ``loads.py``): ``security-matrix`` and
``sample-long``.  Compare a change only against its parent measured on
the same host.

Every pass runs in a fresh interpreter, one job at a time, with the
result cache off.  With ``--trace 0`` the benchmark runs passes while
most of another pass fits in ``--seconds``, starting an interpreter
that only sets up (for ``setup_s``) before each.  Each pass also times
the reference kernel of ``reference.py`` between its jobs, and the
bounded timings are a pass's job time in runs of that kernel
(``pass_kernels``), which the host's drift moves far less than raw
time; raw wall-clock figures are printed beside them.  All are medians
over passes.  With ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics of the traced one, plus the
tracing overhead.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("security-matrix", "sample-long")
SETUP_PROBES_PER_PASS = 1
# A new pass starts while this share of the last one still fits.
MIN_PASS_SHARE = 0.75
PASS_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "pass_kernels": "kernels", "inst_per_kernel":
    "instr/kernel", "jobs_per_kernel": "jobs/kernel", "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in (
            "pipeline.cycles", "pipeline.committed", "pipeline.squashed",
            "core.promoted", "core.annulled"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.startswith(("pipeline.ns_", "backends.fast.ns_")):
        return "ns"
    return "ratio"


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "REPRO_"))}
    # The cache is off; this only guarantees the user's store is never
    # touched if some path consults the default location anyway.
    env["REPRO_CACHE_DIR"] = str(OUT / "cache")
    return env


def _child(workload: str, seed: int, mode: str, deadline: float,
           spans: str = "") -> dict:
    """Run one fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} pass of {workload} exited "
                         f"{proc.returncode}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def _deciles(values: List[float]) -> List[float]:
    # statistics.quantiles needs two points; a lone job is every decile.
    return statistics.quantiles(values * 2 if len(values) == 1 else values,
                                n=10, method="inclusive")


def pass_kernels(p: dict) -> float:
    """A pass's job time in runs of the reference kernel timed in it."""
    return sum(p["latencies_ms"]) / 1e3 / statistics.median(p["kernel_s"])


def measure(workload: str, seed: int, seconds: int,
            deadline: float) -> tuple:
    setups: List[float] = []
    passes: List[dict] = []
    began = time.monotonic()
    while not passes or (time.monotonic() - began
                         + MIN_PASS_SHARE * passes[-1]["elapsed_s"]
                         <= seconds):
        # Set-up probes are spread over the run, so that one burst of
        # host noise cannot move all of them.
        setups += [_child(workload, seed, "setup", deadline)["setup_s"]
                   for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(_child(workload, seed, "pass", deadline))
    setups += [p["setup_s"] for p in passes]
    med = statistics.median
    kernels = med(pass_kernels(p) for p in passes)
    jobs = len(passes[0]["latencies_ms"])
    metrics = {
        "setup_s": med(setups),
        "pass_kernels": kernels,
        "inst_per_kernel": passes[0]["instructions"] / kernels,
        "jobs_per_kernel": jobs / kernels,
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    # Raw wall-clock, printed for reading but not bounded: it moves with
    # the host by more than any bound.
    job_s = med(sum(p["latencies_ms"]) / 1e3 for p in passes)
    deciles = _deciles([x for p in passes for x in p["latencies_ms"]])
    kernel_ms = 1e3 * med(x for p in passes for x in p["kernel_s"])
    info = [f"passes {len(passes)}, setup samples {len(setups)}, "
            f"jobs {jobs}, kernel samples "
            f"{sum(len(p['kernel_s']) for p in passes)}",
            f"raw: job time {job_s:.4f} s per pass, "
            f"{passes[0]['instructions'] / job_s:.6g} instr/s, "
            f"{jobs / job_s:.6g} jobs/s, job_ms.p50 {deciles[4]:.6g}, "
            f"job_ms.p90 {deciles[8]:.6g} over {jobs * len(passes)} jobs, "
            f"reference kernel {kernel_ms:.4f} ms"]
    return metrics, END_TO_END_UNITS, passes, info


def trace(workload: str, seed: int, deadline: float) -> tuple:
    OUT.mkdir(exist_ok=True)
    plain = _child(workload, seed, "pass", deadline)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    traced = _child(workload, seed, "trace", deadline, str(spans))
    metrics = dict(traced["layers"])
    # Job time, not wall: the untraced pass also times the kernel.
    metrics["trace.overhead_frac"] = (sum(traced["latencies_ms"])
                                      / sum(plain["latencies_ms"]) - 1)
    units = {name: _layer_unit(name) for name in metrics}
    other = metrics["trace.other.self_s"] / traced["wall_s"]
    info = [f"traced wall {traced['wall_s']:.3f} s, untraced "
            f"{plain['wall_s']:.3f} s, unattributed {other:.1%} of traced "
            f"wall", f"spans written to {spans.relative_to(ROOT)}"]
    return metrics, units, [plain, traced], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + PASS_TIMEOUT_S
    if args.trace:
        metrics, units, passes, info = trace(args.workload, args.seed,
                                             deadline)
    else:
        metrics, units, passes, info = measure(args.workload, args.seed,
                                               args.seconds, deadline)

    failures = [f for p in passes for f in p["failures"]]
    digests = sorted({p["digest"] for p in passes})
    # Untraced passes must run unwrapped, the traced one wrapped.
    untraced = passes[:len(passes) - args.trace]
    wrapping_ok = (not any(p["wrapped"] for p in untraced)
                   and (not args.trace or passes[-1]["wrapped"] > 0))
    attempted = sum(p["attempted"] for p in passes)
    correct = not failures and len(digests) == 1 and wrapping_ok
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if len(digests) > 1:
        print(f"perfbench: passes disagree on sim_digest: {digests}",
              file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: " + "; ".join(info))
    print(f"sim_digest {args.workload} seed={args.seed} "
          f"{','.join(digests)}")
    print(f"failed_frac {len(failures) / max(attempted, 1):.6f} "
          f"({len(failures)}/{attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
