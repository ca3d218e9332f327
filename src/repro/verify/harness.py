"""Differential/invariant harness: pipeline vs oracle, plus leakage checks.

One verification case is ``(profile, seed, policy, spec, backend)``: the
fuzzed program runs through the full :class:`~repro.machine.Machine` —
the cycle-accurate core or the fast-functional backend, selected by
name — under the given commit policy and hardware shape, and its final
architectural state is compared field-by-field against the in-order
:class:`~repro.verify.oracle.ReferenceOracle`.

Passing a comma-joined backend list (``"cycle,fast"``) turns a case into
a *cross-backend differential*: every named backend runs the same
program, each is held to the oracle, and the backends are then compared
against each other — architectural state must be bit-identical, and the
fast backend's cycle count must stay within
:data:`CYCLE_TOLERANCE` of the cycle-accurate count (the accuracy
contract documented in the README).  On top of the
equivalence check, the harness reads the SafeSpec engine's invariant
surface (:meth:`~repro.core.safespec.SafeSpecEngine.invariant_stats`)
and asserts the paper's leakage contract:

* **residual** — no speculative shadow entry survives the run;
* **conservation** — every accepted shadow fill is eventually either
  committed or annulled, never lost;
* **no wrong-path promotion** — under WFC a squashed micro-op's state
  must never have reached the committed structures (under WFB this
  holds too, except across a fault — the Meltdown hole the paper
  documents — or an artificial budget stop).

Cases are ordinary :class:`~repro.exec.job.SimJob` values (kind
``"verify"``), so they flow through the executor/cache like any other
simulation: ``Session.verify`` fans a seed range out over worker
processes and replays unchanged (profile, seed, policy, spec) verdicts
from the on-disk result cache.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.backends import BACKENDS, DEFAULT_BACKEND
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.job import (DEFAULT_INSTRUCTION_BUDGET, VERIFY, SimJob,
                            SimResult)
from repro.machine import Machine
from repro.spec import MachineSpec
from repro.verify.fuzz import (FUZZ_FORMAT_VERSION, FuzzProfile,
                               FuzzProgram, fuzz_profile,
                               generate_fuzz_program)
from repro.verify.oracle import OracleResult, ReferenceOracle

# Cross-backend accuracy contract: the fast backend's cycle count must
# stay within this relative tolerance of the cycle-accurate core's.
# It holds only in the regime TestCycleTolerance checks (namd/mcf at 4k
# instructions, cold start); longer runs undercount, e.g. bwaves and
# lbm at 64k WFC instructions measure fast/cycle 0.475 and 0.505
# (ROADMAP item 3).
CYCLE_TOLERANCE = 0.25

# The timing half of the contract is stated for realistic instruction
# streams (the suite workloads).  Fuzz micro-programs that halt after a
# few hundred instructions are fault- and miss-dominated edge cases
# where the fast backend's scoreboard legitimately overlaps misses the
# out-of-order core serializes, so cycle drift is only asserted on runs
# at least this long.
TIMING_CONTRACT_MIN_INSTRUCTIONS = 1000

# A case's golden outcome: the oracle's result, and the words its run
# left at the case's compare addresses (packed: the memo below keeps
# these for many seeds, where the oracle's whole memory would cost more).
Reference = Tuple[OracleResult, array]

# Per-process memo of each seed's fuzz program and oracle run, keyed by
# (profile name, seed, instruction budget): neither depends on the
# policy, backend or machine spec of the job.  ``Session.verify``
# submits a seed's policy jobs back to back, so one entry serves them
# all; the memo keeps more than one so a second batch over the same
# seeds (another backend's) is served too.  Oldest entries go first and
# the cap keeps long-lived workers bounded.
_REFERENCE_MEMO: Dict[Tuple[str, int, Optional[int]],
                      Tuple[FuzzProgram, Reference]] = {}
_REFERENCE_MEMO_MAX = 32


def _backend_names(backend: str) -> List[str]:
    """Split (and validate) a single or comma-joined backend selector."""
    names = [name.strip() for name in backend.split(",") if name.strip()]
    if not names:
        raise ConfigError(f"no backend named in {backend!r}")
    for name in names:
        BACKENDS.entry(name)        # unknown backends fail here, loudly
    return names


@dataclass
class VerifyVerdict:
    """Outcome of one differential case."""

    seed: int
    profile: str
    policy: CommitPolicy
    ok: bool
    mismatches: List[str] = field(default_factory=list)
    invariant_failures: List[str] = field(default_factory=list)
    instructions: int = 0
    cycles: int = 0
    halted_reason: str = ""
    faults: int = 0
    backend: str = DEFAULT_BACKEND
    from_cache: bool = False

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        tag = (f" @{self.backend}" if self.backend != DEFAULT_BACKEND
               else "")
        line = (f"seed {self.seed:4d} {self.profile:8s} "
                f"{self.policy.value:8s}: {status} "
                f"({self.instructions} instr, {self.halted_reason}{tag})")
        for issue in self.mismatches + self.invariant_failures:
            line += f"\n    - {issue}"
        return line


@dataclass
class VerifyReport:
    """A completed verification batch, in submission order."""

    verdicts: List[VerifyVerdict]

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.ok)

    @property
    def failures(self) -> int:
        return len(self.verdicts) - self.passed

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_payload(self) -> Dict[str, Any]:
        """Deterministic JSON payload (no cache/transport metadata)."""
        return {
            "fuzz_version": FUZZ_FORMAT_VERSION,
            "cases": len(self.verdicts),
            "passed": self.passed,
            "failures": self.failures,
            "verdicts": [{
                "seed": v.seed,
                "profile": v.profile,
                "policy": v.policy.value,
                "ok": v.ok,
                "mismatches": list(v.mismatches),
                "invariant_failures": list(v.invariant_failures),
                "instructions": v.instructions,
                "cycles": v.cycles,
                "halted_reason": v.halted_reason,
                "faults": v.faults,
                "backend": v.backend,
            } for v in self.verdicts],
        }

    def render_text(self) -> str:
        lines = [v.describe() for v in self.verdicts]
        lines.append(f"{self.passed}/{len(self.verdicts)} cases ok"
                     + (f", {self.failures} FAILED" if self.failures
                        else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# job construction
# ---------------------------------------------------------------------------

def verify_job(seed: int, policy: CommitPolicy,
               profile: str = "mixed",
               instructions: int = DEFAULT_INSTRUCTION_BUDGET,
               spec: MachineSpec = MachineSpec(),
               backend: str = DEFAULT_BACKEND) -> SimJob:
    """One differential case as a cacheable job.

    ``profile`` must be a registered fuzz profile name (ad-hoc
    :class:`FuzzProfile` values can run directly through
    :func:`verify_case`).  ``backend`` names the execution backend the
    case holds to the oracle; a comma-joined list (``"cycle,fast"``)
    makes it a cross-backend differential.  The fuzz format version
    namespaces the cache: regenerating programs differently invalidates
    every stored verdict.
    """
    fuzz_profile(profile)           # unknown names fail here, loudly
    _backend_names(backend)
    return SimJob(kind=VERIFY, target=f"{profile}-{seed}", policy=policy,
                  instructions=instructions,
                  params={"seed": seed, "profile": profile,
                          "fuzz_version": FUZZ_FORMAT_VERSION,
                          "backend": backend},
                  spec=spec)


def _profile_from_params(params: Dict[str, Any]) -> FuzzProfile:
    return fuzz_profile(str(params.get("profile", "mixed")))


# ---------------------------------------------------------------------------
# the differential run
# ---------------------------------------------------------------------------

def run_reference(case: FuzzProgram,
                  max_instructions: Optional[int] = None
                  ) -> Tuple[ReferenceOracle, OracleResult]:
    """Execute one fuzz case on a fresh oracle (the golden state).

    Returns the oracle too so callers (golden-state fixtures) can read
    the final memory image.
    """
    oracle = ReferenceOracle()
    case.apply_memory_image(oracle)
    golden = oracle.run(case.program, max_instructions=max_instructions,
                        fault_handler_pc=case.fault_handler_pc)
    return oracle, golden


def _golden(case: FuzzProgram,
            max_instructions: Optional[int] = None) -> Reference:
    """The case's :data:`Reference`: what every backend is held to."""
    oracle, golden = run_reference(case, max_instructions=max_instructions)
    return golden, case.read_image(oracle)


def verify_case(case: FuzzProgram, policy: CommitPolicy,
                spec: MachineSpec = MachineSpec(),
                max_instructions: Optional[int] = None,
                backend: str = DEFAULT_BACKEND,
                reference: Optional[Reference] = None) -> VerifyVerdict:
    """Run one fuzz case differentially and check every invariant.

    A comma-joined ``backend`` (``"cycle,fast"``) delegates to
    :func:`diff_backends_case` for a cross-backend differential.
    ``reference`` is the case's :data:`Reference` at the same
    ``max_instructions``, when the caller already has it.
    """
    names = _backend_names(backend)
    if len(names) > 1:
        return diff_backends_case(case, policy, spec=spec,
                                  max_instructions=max_instructions,
                                  backends=names, reference=reference)
    golden, expected_words = reference or _golden(case, max_instructions)

    machine = Machine.from_spec(spec, policy=policy, backend=names[0])
    case.apply_memory_image(machine)
    result = machine.run(case.program, max_instructions=max_instructions,
                         fault_handler_pc=case.fault_handler_pc)

    mismatches = _compare_states(case, golden, expected_words, result,
                                 machine)
    invariant_failures = _check_invariants(machine, policy, result)
    return VerifyVerdict(
        seed=case.seed,
        profile=case.profile.name,
        policy=policy,
        ok=not mismatches and not invariant_failures,
        mismatches=mismatches,
        invariant_failures=invariant_failures,
        instructions=result.instructions,
        cycles=result.cycles,
        halted_reason=result.halted_reason,
        faults=len(result.fault_events),
        backend=names[0],
    )


def diff_backends_case(case: FuzzProgram, policy: CommitPolicy,
                       spec: MachineSpec = MachineSpec(),
                       max_instructions: Optional[int] = None,
                       backends: "Optional[List[str]]" = None,
                       cycle_tolerance: float = CYCLE_TOLERANCE,
                       reference: Optional[Reference] = None
                       ) -> VerifyVerdict:
    """One fuzz case across several backends, all held to one oracle.

    Every backend must match the oracle's architectural state and pass
    the SafeSpec invariants (the single-backend check, run per
    backend); since the oracle pins the whole untainted surface, the
    backends are transitively bit-identical there.  Tainted registers
    (timing reads) are timing-dependent by design and not compared.
    On runs long enough for the timing contract
    (:data:`TIMING_CONTRACT_MIN_INSTRUCTIONS`), every non-reference
    backend's cycle count must additionally land within
    ``cycle_tolerance`` (relative) of the first backend named.
    """
    names = backends if backends else [DEFAULT_BACKEND, "fast"]
    golden, expected_words = reference or _golden(case, max_instructions)

    mismatches: List[str] = []
    invariant_failures: List[str] = []
    runs = []
    for name in names:
        machine = Machine.from_spec(spec, policy=policy, backend=name)
        case.apply_memory_image(machine)
        result = machine.run(case.program,
                             max_instructions=max_instructions,
                             fault_handler_pc=case.fault_handler_pc)
        mismatches += [f"[{name}] {issue}" for issue in
                       _compare_states(case, golden, expected_words,
                                       result, machine)]
        invariant_failures += [f"[{name}] {issue}" for issue in
                               _check_invariants(machine, policy, result)]
        runs.append((name, result))

    ref_name, ref_result = runs[0]
    long_enough = ref_result.instructions >= TIMING_CONTRACT_MIN_INSTRUCTIONS
    for name, result in runs[1:]:
        if result.instructions != ref_result.instructions:
            mismatches.append(
                f"[{name}] retired {result.instructions} != "
                f"{ref_name} {ref_result.instructions}")
        if long_enough and ref_result.cycles:
            drift = abs(result.cycles - ref_result.cycles) / ref_result.cycles
            if drift > cycle_tolerance:
                mismatches.append(
                    f"[{name}] cycles {result.cycles} drift "
                    f"{drift:.1%} from {ref_name} {ref_result.cycles} "
                    f"(> {cycle_tolerance:.0%} tolerance)")

    return VerifyVerdict(
        seed=case.seed,
        profile=case.profile.name,
        policy=policy,
        ok=not mismatches and not invariant_failures,
        mismatches=mismatches,
        invariant_failures=invariant_failures,
        instructions=ref_result.instructions,
        cycles=ref_result.cycles,
        halted_reason=ref_result.halted_reason,
        faults=len(ref_result.fault_events),
        backend=",".join(names),
    )


def _compare_states(case: FuzzProgram, golden: OracleResult,
                    expected_words: array, result,
                    machine) -> List[str]:
    mismatches: List[str] = []
    if result.halted_reason != golden.halted_reason:
        mismatches.append(
            f"halted_reason: machine={result.halted_reason!r} "
            f"oracle={golden.halted_reason!r}")
    if result.instructions != golden.instructions:
        mismatches.append(
            f"retired instructions: machine={result.instructions} "
            f"oracle={golden.instructions}")
    for index, value in golden.untainted_registers().items():
        got = result.registers[index]
        if got != value:
            mismatches.append(
                f"r{index}: machine={got:#x} oracle={value:#x}")
    machine_faults = [(f.pc, f.vaddr, f.kind) for f in result.fault_events]
    oracle_faults = [(f.pc, f.vaddr, f.kind) for f in golden.fault_events]
    if machine_faults != oracle_faults:
        mismatches.append(
            f"fault events: machine={machine_faults} "
            f"oracle={oracle_faults}")
    image = case.read_image(machine)
    if image != expected_words:
        for vaddr, got, want in zip(case.compare_addresses(), image,
                                    expected_words):
            if got != want:
                mismatches.append(
                    f"mem[{vaddr:#x}]: machine={got:#x} oracle={want:#x}")
    return mismatches


def _check_invariants(machine: Machine, policy: CommitPolicy,
                      result) -> List[str]:
    """The SafeSpec leakage contract, read from the engine stats."""
    failures: List[str] = []
    engine = machine.engine
    if engine is None:
        return failures
    stats = engine.invariant_stats()
    for name, row in stats.items():
        if name == "engine":
            continue
        if row["residual"] != 0:
            failures.append(
                f"{name}: {row['residual']} speculative entries survived "
                f"the run")
        retired = row["committed"] + row["annulled"]
        if row["fills"] != retired + row["residual"]:
            failures.append(
                f"{name}: fills={row['fills']} != committed+annulled="
                f"{retired} (speculative state lost or duplicated)")
    leaked = stats["engine"]["promoted_then_squashed"]
    if policy is CommitPolicy.WFC and leaked:
        failures.append(
            f"WFC promoted {leaked} squashed micro-op(s) into committed "
            f"state (speculative leakage)")
    elif (policy is CommitPolicy.WFB and leaked
          and not result.fault_events
          and result.halted_reason != "budget"):
        failures.append(
            f"WFB promoted {leaked} squashed micro-op(s) with no fault "
            f"in the run (speculative leakage)")
    return failures


# ---------------------------------------------------------------------------
# executor worker entry
# ---------------------------------------------------------------------------

def _seed_reference(profile: FuzzProfile, seed: int,
                    max_instructions: Optional[int]
                    ) -> Tuple[FuzzProgram, Reference]:
    """One seed's fuzz program and oracle run, generated once per
    process while the seed stays in :data:`_REFERENCE_MEMO`."""
    key = (profile.name, seed, max_instructions)
    hit = _REFERENCE_MEMO.get(key)
    if hit is None:
        case = generate_fuzz_program(profile, seed)
        hit = (case, _golden(case, max_instructions))
        if len(_REFERENCE_MEMO) >= _REFERENCE_MEMO_MAX:
            _REFERENCE_MEMO.pop(next(iter(_REFERENCE_MEMO)))
        _REFERENCE_MEMO[key] = hit
    return hit


def run_verify_job(job: SimJob) -> SimResult:
    """Rebuild one differential case from its job spec and run it."""
    if job.kind != VERIFY:
        raise ConfigError(f"not a verify job: {job.kind!r}")
    params = dict(job.params)
    fuzz_version = int(params.get("fuzz_version", FUZZ_FORMAT_VERSION))
    if fuzz_version != FUZZ_FORMAT_VERSION:
        raise ConfigError(
            f"verify job was built for fuzz format v{fuzz_version}; "
            f"this build generates v{FUZZ_FORMAT_VERSION}")
    seed = int(params["seed"])
    profile = _profile_from_params(params)
    backend = str(params.get("backend", DEFAULT_BACKEND))
    case, reference = _seed_reference(profile, seed, job.instructions)
    verdict = verify_case(case, job.policy, spec=job.spec,
                          max_instructions=job.instructions,
                          backend=backend, reference=reference)
    return SimResult(
        job_key=job.key(),
        kind=job.kind,
        target=job.target,
        policy=job.policy,
        cycles=verdict.cycles,
        instructions=verdict.instructions,
        halted_reason=verdict.halted_reason,
        details={
            "seed": seed,
            "profile": profile.name,
            "ok": verdict.ok,
            "mismatches": list(verdict.mismatches),
            "invariant_failures": list(verdict.invariant_failures),
            "faults": verdict.faults,
            "backend": verdict.backend,
        },
    )


def verdict_from_sim(result: SimResult) -> VerifyVerdict:
    """Rehydrate the verdict view of a (possibly cached) job result."""
    details = result.details
    return VerifyVerdict(
        seed=int(details.get("seed", -1)),
        profile=str(details.get("profile", "?")),
        policy=result.policy,
        ok=bool(details.get("ok", False)),
        mismatches=list(details.get("mismatches", [])),
        invariant_failures=list(details.get("invariant_failures", [])),
        instructions=result.instructions,
        cycles=result.cycles,
        halted_reason=result.halted_reason,
        faults=int(details.get("faults", 0)),
        backend=str(details.get("backend", DEFAULT_BACKEND)),
        from_cache=result.from_cache,
    )
