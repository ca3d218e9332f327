"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``attack <name|all> [--policy ...] [--secret N]`` — run attack PoCs;
  the exit code counts protected-policy runs that still leaked.
* ``matrix`` — Tables III/IV: every attack under every policy.
* ``workload <name|suite> [--policy ...] [--instructions N]`` — run the
  synthetic suite and print the per-run metrics (``run`` is an alias
  whose name defaults to ``suite``).
* ``specs [name]`` — list the registered hardware presets, or show one
  spec's full tree, digest, and diff against the default machine.
* ``figures [--benchmarks a,b,...] [--instructions N]`` — regenerate the
  performance figures (6-9, 11-16) as text tables or machine-readable
  JSON (``--format json``).
* ``verify [--count N] [--seed N] [--profile NAME]`` — differentially
  verify fuzzed programs against the in-order reference oracle under
  every policy (``repro.verify``), checking the SafeSpec leakage
  invariants; the exit code counts failing cases, and a failing text
  run prints the seed plus a one-line repro command.  ``--backend
  fast`` holds the fast backend to the oracle, ``--diff-backends
  cycle,fast`` also cross-checks the backends against each other.
* ``sample <name> [--interval N] [--windows N]`` — checkpointed,
  SimPoint-style sampled simulation (``repro.sample``): fast-forward on
  the fast backend, measure a seeded selection of windows on the
  detailed backend in parallel, and stitch a whole-program IPC estimate
  with error bars.
* ``cache stats|clear|gc`` — inspect or prune the on-disk result
  cache.
* ``table5`` — the hardware-overhead table.
* ``asm <file>`` — assemble a text program and print its disassembly.

Every ``--format json`` subcommand emits the same envelope::

    {"schema_version": N, "rev": "<git rev>", "command": "<name>",
     "payload": {...}}

so consumers dispatch on ``command`` and version-gate on
``schema_version`` without knowing any payload's shape.

Every simulation-batch command (``attack``, ``matrix``, ``workload``,
``figures``, ``verify``, ``sample``) is a thin client of
:class:`repro.api.session.Session`:
``--jobs N`` fans the batch out over N worker processes, and completed
runs are reused from the persistent result cache (``--cache-dir``,
disable with ``--no-cache``) across invocations.  Attack and workload
name choices derive from the component registries
(:mod:`repro.api.registry`).

The simulation commands also take the hardware axis:
``--preset <name>`` starts from a registered
:class:`~repro.spec.MachineSpec` and ``--set key=value`` (repeatable)
derives dotted-path overrides, e.g.::

    repro run mcf --preset little-core --set core.rob_entries=96
    repro matrix --set safespec.sizing=performance
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import List, Optional

from repro.analysis.report import render_figures_text
from repro.api.registry import attack_names, expected_closed
from repro.api.session import MATRIX_POLICIES, Session
from repro.attacks.runner import attack_result_from_sim, render_matrix
from repro.core.policy import CommitPolicy
from repro.errors import ReproError
from repro.exec.cache import ResultCache
from repro.exec.executor import stderr_progress
from repro.exec.job import SCHEMA_VERSION, attack_job, workload_job
from repro.hwmodel.overhead import render_table5
from repro.spec import (DEFAULT_SPEC, MachineSpec, derive_from_strings,
                        get_spec, spec_description, spec_names)
from repro.workloads import suite_names

_POLICIES = {p.value: p for p in CommitPolicy}


def git_revision() -> str:
    """Short revision of the working tree, or ``"local"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def _emit_json(command: str, payload: dict) -> None:
    """Print one ``--format json`` result in the uniform envelope.

    Every JSON-emitting subcommand goes through here, so the outer
    shape — ``schema_version`` (the result-store schema), ``rev`` (the
    working tree), ``command`` (the subcommand name) and ``payload``
    (the command-specific body) — is identical across the CLI.
    """
    json.dump({
        "schema_version": SCHEMA_VERSION,
        "rev": git_revision(),
        "command": command,
        "payload": payload,
    }, sys.stdout, indent=2)
    print()


def _parse_policy(value: str) -> CommitPolicy:
    if value not in _POLICIES:
        raise argparse.ArgumentTypeError(
            f"unknown policy {value!r}; choose from {sorted(_POLICIES)}")
    return _POLICIES[value]


def _add_exec_options(parser: argparse.ArgumentParser) -> None:
    """Session flags shared by the simulation-batch commands."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the simulation batch "
                             "(default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk "
                             "result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    """Hardware-shape flags shared by the simulation commands."""
    parser.add_argument("--preset", choices=spec_names(),
                        default=DEFAULT_SPEC, metavar="NAME",
                        help="start from a registered MachineSpec preset "
                             f"(see `repro specs`; default: {DEFAULT_SPEC})")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="set_overrides",
                        help="override one spec field by dotted path "
                             "(repeatable), e.g. --set core.rob_entries=96")


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    """The execution-backend flag shared by the simulation commands."""
    from repro.backends import backend_names

    names = "/".join(backend_names())
    parser.add_argument("--backend", default="cycle", metavar="NAME",
                        help=f"execution backend: {names} (default: cycle)")


def _resolve_spec(args: argparse.Namespace) -> MachineSpec:
    """The MachineSpec the ``--preset`` and ``--set`` flags describe."""
    return derive_from_strings(get_spec(args.preset), args.set_overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SafeSpec (DAC 2019) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack", help="run one attack PoC (or all)")
    attack.add_argument("name", choices=attack_names() + ["all"])
    attack.add_argument("--policy", type=_parse_policy,
                        action="append", default=None,
                        help="baseline / wfb / wfc (repeatable; "
                             "default: all three)")
    attack.add_argument("--secret", type=int, default=42)
    attack.add_argument("--format", choices=["text", "json"],
                        default="text")
    _add_exec_options(attack)
    _add_spec_options(attack)
    _add_backend_option(attack)

    matrix = sub.add_parser("matrix",
                            help="run every attack under every policy "
                                 "(Tables III & IV)")
    matrix.add_argument("--format", choices=["text", "json"],
                        default="text")
    _add_exec_options(matrix)
    _add_spec_options(matrix)
    _add_backend_option(matrix)

    # ``workload`` requires a name; ``run`` is the same command with the
    # name defaulting to the whole suite.
    for command, name_kwargs in (
            ("workload", {}),
            ("run", {"nargs": "?", "default": "suite"})):
        workload = sub.add_parser(
            command,
            help="run a synthetic benchmark" if command == "workload"
                 else "run benchmarks (alias of workload; defaults to "
                      "the whole suite)")
        workload.add_argument("name", help="benchmark name or 'suite'",
                              **name_kwargs)
        workload.add_argument("--policy", type=_parse_policy,
                              default=CommitPolicy.BASELINE)
        workload.add_argument("--instructions", type=int, default=10_000)
        workload.add_argument("--format", choices=["text", "json"],
                              default="text")
        _add_exec_options(workload)
        _add_spec_options(workload)
        _add_backend_option(workload)

    figures = sub.add_parser("figures",
                             help="regenerate the performance figures")
    figures.add_argument("--benchmarks", default=None,
                         help="comma-separated subset (default: full "
                              "suite)")
    figures.add_argument("--instructions", type=int, default=8_000)
    figures.add_argument("--format", choices=["text", "json"],
                         default="text")
    _add_exec_options(figures)
    _add_spec_options(figures)

    specs = sub.add_parser(
        "specs", help="list or show MachineSpec hardware presets")
    specs.add_argument("name", nargs="?", default=None,
                       help="preset to show in full (omit to list)")
    specs.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="set_overrides",
                       help="preview dotted-path overrides applied to "
                            "the shown preset")
    specs.add_argument("--format", choices=["text", "json"],
                       default="text")

    verify = sub.add_parser(
        "verify",
        help="differentially verify fuzzed programs against the "
             "reference oracle (repro.verify)")
    verify.add_argument("--count", type=int, default=10, metavar="N",
                        help="number of fuzz seeds to run (default: 10)")
    verify.add_argument("--seed", type=int, default=0, metavar="N",
                        help="first fuzz seed (default: 0)")
    verify.add_argument("--profile", default="mixed", metavar="NAME",
                        help="fuzz profile (mixed/alu/memory/control/"
                             "faulty/call-ret; default: mixed)")
    verify.add_argument("--policy", type=_parse_policy,
                        action="append", default=None,
                        help="baseline / wfb / wfc (repeatable; "
                             "default: all three)")
    verify.add_argument("--instructions", type=int, default=20_000,
                        metavar="N",
                        help="per-case instruction budget")
    verify.add_argument("--format", choices=["text", "json"],
                        default="text")
    verify.add_argument("--diff-backends", default=None,
                        metavar="A,B",
                        help="cross-backend differential: run every case "
                             "on each named backend and compare (e.g. "
                             "cycle,fast); overrides --backend")
    _add_exec_options(verify)
    _add_spec_options(verify)
    _add_backend_option(verify)

    sample = sub.add_parser(
        "sample",
        help="checkpointed SimPoint-style sampled simulation of one "
             "long workload (repro.sample)")
    sample.add_argument("name", help="benchmark name (see `repro run`)")
    sample.add_argument("--policy", type=_parse_policy,
                        default=CommitPolicy.BASELINE,
                        help="baseline / wfb / wfc (default: baseline)")
    sample.add_argument("--instructions", type=int, default=1_000_000,
                        metavar="N",
                        help="total instruction budget the estimate "
                             "covers (default: 1000000)")
    sample.add_argument("--interval", type=int, default=None, metavar="N",
                        help="instructions per slice / checkpoint "
                             "spacing (default: 50000)")
    sample.add_argument("--warmup", type=int, default=None, metavar="N",
                        help="warmup instructions before each measured "
                             "window (default: 2000)")
    sample.add_argument("--windows", type=int, default=None, metavar="N",
                        help="how many slices to measure (default: 8)")
    sample.add_argument("--window", type=int, default=None, metavar="N",
                        help="measured instructions per window "
                             "(default: 10000)")
    sample.add_argument("--seed", type=int, default=0, metavar="N",
                        help="window-selection seed (default: 0)")
    sample.add_argument("--cold", action="store_true",
                        help="restore architectural state only (drop the "
                             "checkpoints' warm predictor/TLB/cache "
                             "state)")
    sample.add_argument("--ff-backend", default="fast", metavar="NAME",
                        help="fast-forward backend for the checkpoint "
                             "scan (default: fast)")
    sample.add_argument("--format", choices=["text", "json"],
                        default="text")
    _add_exec_options(sample)
    _add_spec_options(sample)
    _add_backend_option(sample)

    cache = sub.add_parser(
        "cache",
        help="inspect or prune the on-disk result cache")
    cache.add_argument("action", choices=["stats", "clear", "gc"],
                       help="stats: corpus shape; clear: drop every "
                            "current-schema entry; gc: prune by "
                            "age/count/size")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro)")
    cache.add_argument("--max-age-days", type=float, default=None,
                       metavar="D",
                       help="gc: drop entries unused for more than D days")
    cache.add_argument("--max-entries", type=int, default=None,
                       metavar="N",
                       help="gc: keep at most the N most recent entries")
    cache.add_argument("--max-bytes", type=int, default=None, metavar="B",
                       help="gc: keep the most recent entries within a "
                            "B-byte payload budget")
    cache.add_argument("--all-schemas", action="store_true",
                       help="gc: also drop entries from other schema "
                            "versions")
    cache.add_argument("--format", choices=["text", "json"],
                       default="text")

    sub.add_parser("table5", help="hardware overhead table (Table V)")

    asm = sub.add_parser("asm", help="assemble and disassemble a program")
    asm.add_argument("file", help="assembly source file ('-' for stdin)")

    return parser


# ---------------------------------------------------------------------------
# session wiring
# ---------------------------------------------------------------------------

def _make_session(args: argparse.Namespace,
                  progress=None) -> Session:
    """The session the shared exec flags describe."""
    if progress is None:
        progress = stderr_progress if args.jobs > 1 else None
    return Session(jobs=args.jobs, cache=not args.no_cache,
                   cache_dir=args.cache_dir, progress=progress)


def _report_cache(session: Session) -> None:
    print(session.describe_cache(), file=sys.stderr)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_attack(args: argparse.Namespace) -> int:
    policies = args.policy or list(MATRIX_POLICIES)
    names = attack_names() if args.name == "all" else [args.name]
    # A one-worker text run streams each verdict as it completes (the
    # executor reports in submission order); parallel runs keep the
    # stderr progress lines and print the ordered verdicts at the end.
    stream = args.format == "text" and args.jobs == 1
    if stream:
        session = _make_session(
            args, progress=lambda done, total, job, result:
            print(attack_result_from_sim(result)))
    else:
        session = _make_session(args)
    spec = _resolve_spec(args)
    results = session.run([attack_job(name, policy, secret=args.secret,
                                      spec=spec, backend=args.backend)
                           for name in names for policy in policies])
    failures = 0
    records = []
    for sim in results:
        result = attack_result_from_sim(sim)
        expected = expected_closed(sim.target, sim.policy)
        # A leak under a policy the paper says closes this attack is a
        # reproduction failure; baseline leaks (and WFB's expected
        # Meltdown leak) are the vulnerable behaviour being reproduced.
        unexpected = result.success and expected
        failures += unexpected
        if args.format == "text" and not stream:
            print(result)
        records.append({
            "attack": sim.target,
            "policy": sim.policy.value,
            "secret": result.secret,
            "leaked": result.leaked,
            "closed": result.closed,
            "expected_closed": expected,
            "unexpected_leak": unexpected,
            "cached": sim.from_cache,
        })
    if args.format == "json":
        _emit_json("attack", {"results": records, "failures": failures})
    _report_cache(session)
    return failures


def _cmd_matrix(args: argparse.Namespace) -> int:
    session = _make_session(args)
    matrix = session.matrix(spec=_resolve_spec(args),
                            backend=args.backend)
    if args.format == "json":
        _emit_json("matrix", {
            "backend": args.backend,
            "matrix": {
                attack: {policy: {"closed": result.closed,
                                  "leaked": result.leaked}
                         for policy, result in row.items()}
                for attack, row in matrix.items()},
        })
    else:
        print(render_matrix(matrix))
    _report_cache(session)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    names = suite_names() if args.name == "suite" else [args.name]
    session = _make_session(args)
    spec = _resolve_spec(args)
    results = session.run(
        [workload_job(name, args.policy, instructions=args.instructions,
                      spec=spec, backend=args.backend)
         for name in names])
    if args.format == "json":
        _emit_json(args.command, {
            "policy": args.policy.value,
            "instructions": args.instructions,
            "backend": args.backend,
            "runs": [{
                "benchmark": run.target,
                "ipc": run.ipc,
                "dcache_read_miss_rate": run.dcache_read_miss_rate,
                "icache_miss_rate": run.icache_miss_rate,
                "cycles": run.cycles,
                "cached": run.from_cache,
            } for run in results],
        })
    else:
        header = (f"{'benchmark':10s} {'IPC':>7s} {'d-miss':>7s} "
                  f"{'i-miss':>7s} {'cycles':>9s}")
        print(header)
        print("-" * len(header))
        for run in results:
            print(f"{run.target:10s} {run.ipc:7.3f} "
                  f"{run.dcache_read_miss_rate:7.3f} "
                  f"{run.icache_miss_rate:7.3f} {run.cycles:9d}")
    _report_cache(session)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    benchmarks = (args.benchmarks.split(",") if args.benchmarks
                  else None)
    session = _make_session(args)
    figures = session.figures(benchmarks=benchmarks,
                              instructions=args.instructions,
                              spec=_resolve_spec(args))
    if args.format == "json":
        _emit_json("figures", {
            "instructions": args.instructions,
            "benchmarks": benchmarks or suite_names(),
            "cache": {"hits": session.cache.hits,
                      "misses": session.cache.misses},
            "figures": figures,
        })
    else:
        print(render_figures_text(figures))
    _report_cache(session)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import fuzz_profile

    fuzz_profile(args.profile)      # unknown profiles fail before any run
    backend = args.diff_backends or args.backend
    session = _make_session(args)
    report = session.verify(
        count=args.count, seed=args.seed,
        policies=args.policy, profile=args.profile,
        instructions=args.instructions, spec=_resolve_spec(args),
        backend=backend)
    if args.format == "json":
        # report.to_payload() contributes fuzz_version and the verdicts.
        _emit_json("verify", {
            "profile": args.profile,
            "seed": args.seed,
            "count": args.count,
            "backend": backend,
            **report.to_payload(),
        })
    else:
        print(report.render_text())
        if not report.ok:
            # Failing text runs name the seed and hand back a one-line
            # repro command — no --format json round-trip needed.
            first = next(v for v in report.verdicts if not v.ok)
            flag = ("--diff-backends" if "," in first.backend
                    else "--backend")
            print(f"first failing seed: {first.seed}")
            print(f"reproduce: repro verify --seed {first.seed} "
                  f"--count 1 --profile {first.profile} "
                  f"--policy {first.policy.value} "
                  f"{flag} {first.backend} --format json")
    _report_cache(session)
    # Clamped: a raw count would wrap modulo 256 at process exit (256
    # failures would read as success).
    return min(report.failures, 255)


def _cmd_sample(args: argparse.Namespace) -> int:
    session = _make_session(args)
    report = session.sample(
        args.name, policy=args.policy, instructions=args.instructions,
        interval=args.interval, warmup=args.warmup,
        windows=args.windows, window=args.window, seed=args.seed,
        warm=not args.cold, spec=_resolve_spec(args),
        backend=args.backend, ff_backend=args.ff_backend)
    failed = len(report.failed_windows)
    if args.format == "json":
        _emit_json("sample", report.to_dict())
    else:
        print(report.render_text())
        if failed:
            # Failing text runs name the plan seed and hand back a
            # one-line repro command — no --format json round-trip.
            first = report.failed_windows[0]
            plan = report.plan
            print(f"first failing window: {first.index} "
                  f"(seed {plan.seed}, "
                  f"{first.halted_reason or 'unmeasured'})")
            print(f"reproduce: repro sample {args.name} "
                  f"--policy {report.policy.value} "
                  f"--instructions {report.total_instructions} "
                  f"--interval {plan.interval} --warmup {plan.warmup} "
                  f"--windows {plan.windows} --window {plan.window} "
                  f"--seed {plan.seed} --backend {report.backend} "
                  f"--format json")
    _report_cache(session)
    return min(failed, 255)


def _cmd_specs(args: argparse.Namespace) -> int:
    default = get_spec(DEFAULT_SPEC)
    if args.name is None:
        if args.set_overrides:
            print("error: --set requires a preset name to apply to",
                  file=sys.stderr)
            return 1
        if args.format == "json":
            _emit_json("specs", {
                "specs": [{"name": name,
                           "digest": get_spec(name).digest(),
                           "description": spec_description(name)}
                          for name in spec_names()],
            })
        else:
            header = f"{'preset':18s} {'digest':12s} description"
            print(header)
            print("-" * len(header))
            for name in spec_names():
                print(f"{name:18s} {get_spec(name).short_digest():12s} "
                      f"{spec_description(name)}")
        return 0
    spec = get_spec(args.name)
    if args.set_overrides:
        spec = derive_from_strings(spec, args.set_overrides)
    if args.format == "json":
        _emit_json("specs", {
            "name": args.name,
            "digest": spec.digest(),
            "description": spec_description(args.name),
            "overrides": list(args.set_overrides),
            "spec": spec.to_dict(),
        })
    else:
        print(f"{args.name}: {spec_description(args.name)}")
        print(f"digest: {spec.digest()}")
        print(json.dumps(spec.to_dict(), indent=2))
        delta = default.diff(spec)
        if delta:
            print(f"diff vs {DEFAULT_SPEC} (default -> this):")
            for line in delta.splitlines():
                print(f"  {line}")
        else:
            print(f"identical to the default ({DEFAULT_SPEC})")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        payload = cache.stats()
        if args.format == "json":
            _emit_json("cache", payload)
        else:
            print(f"[{payload['backend']}] {payload['location']} "
                  f"(schema v{payload['schema']})")
            print(f"entries: {payload['entries']}, payload bytes: "
                  f"{payload['payload_bytes']}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
    else:
        if (args.max_age_days is None and args.max_entries is None
                and args.max_bytes is None and not args.all_schemas):
            print("error: gc needs at least one of --max-age-days, "
                  "--max-entries, --max-bytes, --all-schemas",
                  file=sys.stderr)
            return 1
        removed = cache.gc(max_age_days=args.max_age_days,
                           max_entries=args.max_entries,
                           max_bytes=args.max_bytes,
                           all_schemas=args.all_schemas)
    if args.format == "json":
        _emit_json("cache", {"action": args.action, "removed": removed,
                             "remaining": len(cache)})
    else:
        print(f"{args.action}: removed {removed} entries "
              f"({len(cache)} remain)")
    return 0


def _cmd_table5(_args: argparse.Namespace) -> int:
    print(render_table5())
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    from repro.isa.assembler import assemble

    if args.file == "-":
        source = sys.stdin.read()
    else:
        with open(args.file) as handle:
            source = handle.read()
    program = assemble(source)
    print(program.disassemble())
    return 0


_COMMANDS = {
    "attack": _cmd_attack,
    "matrix": _cmd_matrix,
    "workload": _cmd_workload,
    "run": _cmd_workload,
    "figures": _cmd_figures,
    "specs": _cmd_specs,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "cache": _cmd_cache,
    "table5": _cmd_table5,
    "asm": _cmd_asm,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
