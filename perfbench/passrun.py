"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --t0 T --mode MODE

``--t0`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start, imports and
input construction up to the first simulation call.  ``MODE`` is
``setup`` (stop there), ``pass`` (run the workload once, untraced,
timing the reference kernel of ``reference.py`` between its jobs) or
``trace`` (run it once with every layer wrapped, writing the kept spans
to ``--spans``).  The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_layers():
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, "
                         f"not from {ROOT / 'src'}")
    import layers
    import loads

    return layers, loads


def run_pass(workload: str, seed: int, t0: float, mode: str,
             spans_path: str = "") -> dict:
    layers, loads = _import_layers()
    import reference

    prepare, run = loads.WORKLOADS[workload]
    inputs = prepare(seed)
    tracer = installation = None
    # An untraced pass times the reference kernel before, between (every
    # half second) and after its jobs.
    kernel_s = []

    def time_kernel() -> None:
        kernel_s.append(reference.time_kernel())

    clock = loads.JobClock(time.perf_counter,
                           between=time_kernel if mode == "pass" else None)
    if mode == "trace":
        tracer = layers.Tracer(job=lambda: clock.index)
        installation = layers.install(tracer)
    setup_s = time.monotonic() - t0
    if mode == "setup":
        return {"setup_s": setup_s}
    wrapped = layers.wrapped_bindings()
    if mode == "pass":
        time_kernel()
    start = time.perf_counter()
    try:
        outcome = run(inputs, clock)
        wall_s = time.perf_counter() - start
    finally:
        if installation is not None:
            installation.uninstall()
    if mode == "pass":
        time_kernel()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "kernel_s": kernel_s,
        "wrapped": len(wrapped),
        "latencies_ms": [1e3 * x for x in clock.latencies],
        "instructions": outcome.instructions,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "digest": outcome.digest(),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, wall_s)
        if spans_path:
            _write_spans(tracer, spans_path, start)
    return result


def _write_spans(tracer, path: str, origin: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, job in sorted(tracer.records):
            fh.write(json.dumps({"id": span_id, "name": name,
                                 "start": start - origin,
                                 "end": end - origin,
                                 "parent": parent, "job": job}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"),
                        required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.t0, args.mode,
                      args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
