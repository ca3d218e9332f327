"""Declarative simulation jobs and their serializable results.

A :class:`SimJob` fully describes one simulation — a suite workload or an
attack, the commit policy, the machine (a :class:`~repro.spec.MachineSpec`)
and the instruction budget — independent of the process that will run
it.  Two jobs with the same content have the same :meth:`SimJob.key`,
which is what the on-disk cache and the executors key on.

A :class:`SimResult` carries everything the figures and tables derive
their series from (counters, shadow-occupancy histograms, commit rates,
attack outcome) as plain JSON-serializable data, and exposes the same
derived-metric API as :class:`~repro.workloads.suite.WorkloadRun` so the
analysis layer can consume either interchangeably.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.spec import MachineSpec
from repro.statistics import Histogram, ratio

# Bump whenever the result schema or simulator semantics change in a way
# that invalidates cached results; the cache namespaces entries by it.
# v2: the per-kind ``secret`` field became the generic ``params`` dict.
# v3: jobs may carry a full MachineSpec (dict + digest) in ``params``,
#     so the cache distinguishes hardware shapes (predictor, BTB, and
#     spec-described configs included).
# v4: writeback-stage fix (a wrong-path branch resolving in the same
#     batch as an older mispredicting branch could redirect fetch) —
#     simulator semantics changed, invalidating cached results; the
#     ``verify`` job kind also lands in this schema.
# v5: the execution backend (``"cycle"`` / ``"fast"``) joined the job
#     spec: every job's ``params`` now carries a ``backend`` key, so
#     fast-functional and cycle-accurate results can never share a
#     cache entry (their cycle counts differ within the documented
#     tolerance).
# v6: the ``sample`` job kind (checkpointed SimPoint-style windows)
#     landed, and budget-stopped runs now record a resume PC; sampled
#     window results encode the full sampling plan (interval, warmup,
#     window length/index, fast-forward backend) in ``params``, so two
#     plans can never share a window's cache entry.  The workload
#     generator also changed semantics (stores no longer corrupt the
#     pointer-chase table, so chasing workloads run past a few thousand
#     instructions instead of faulting), invalidating cached results.
# v7: every job carries a MachineSpec and its key folds in the spec's
#     digest; the loose core/hierarchy/safespec config fields and the
#     spec dict in ``params`` are gone, so every job key changed (the
#     default machine and ``skylake-table1`` now share one entry).
SCHEMA_VERSION = 7

# Single source of truth for the per-run budget; the workload suite
# re-exports it (suite imports this module, never the reverse).
DEFAULT_INSTRUCTION_BUDGET = 20_000

WORKLOAD = "workload"
ATTACK = "attack"
VERIFY = "verify"
SAMPLE = "sample"

_JOB_KINDS = (WORKLOAD, ATTACK, VERIFY, SAMPLE)


@dataclass(frozen=True)
class SimJob:
    """A content-hashable description of one simulation.

    ``kind`` is ``"workload"`` (``target`` names a suite benchmark),
    ``"attack"`` (``target`` names a registered attack), ``"verify"``
    (``target`` names a fuzz case; see
    :func:`repro.verify.harness.verify_job`) or ``"sample"`` (``target``
    names a suite benchmark, the job measures one checkpointed window;
    see :func:`repro.sample.driver.sample_job`).  ``spec`` is the
    machine; its digest flows into the job hash, and workers read it
    directly.  ``params`` carries kind-specific scenario data (an
    attack's planted ``secret``, future workload knobs) uniformly for
    every kind and flows into the job hash.
    """

    kind: str
    target: str
    policy: CommitPolicy = CommitPolicy.BASELINE
    instructions: int = DEFAULT_INSTRUCTION_BUDGET
    # hash=False: the dict value would break the generated __hash__;
    # equality still compares params, same-hash jobs just may collide.
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)
    spec: MachineSpec = MachineSpec()

    def __post_init__(self) -> None:
        if self.kind not in _JOB_KINDS:
            raise ConfigError(
                f"job kind must be one of {', '.join(map(repr, _JOB_KINDS))},"
                f" got {self.kind!r}")
        if self.instructions < 1:
            raise ConfigError("instruction budget must be >= 1")
        # Own a plain-dict copy so a caller-held mapping can't mutate
        # the spec after hashing (frozen dataclass setattr workaround).
        object.__setattr__(self, "params", dict(self.params))

    def canonical(self) -> Dict[str, Any]:
        """The canonical content of this job (hash input)."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "target": self.target,
            "policy": self.policy.value,
            "instructions": self.instructions,
            "params": _json_clean(self.params),
            "spec": self.spec.digest(),
        }

    def key(self) -> str:
        """Deterministic content hash identifying this job."""
        canonical = json.dumps(self.canonical(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for progress reporting."""
        return f"{self.kind}:{self.target}/{self.policy.value}"


class FigureMetrics:
    """The per-figure derived metrics, shared by every result type.

    A subclass provides ``_counter(name)`` (simulation counter lookup)
    and a ``shadow_commit_rates`` mapping; the formulas that turn those
    into the paper's figure series live only here, so cached
    :class:`SimResult` values and fresh
    :class:`~repro.workloads.suite.WorkloadRun` values can never derive
    a figure differently.
    """

    shadow_commit_rates: Dict[str, float]

    def _counter(self, name: str) -> int:
        raise NotImplementedError

    @property
    def dcache_read_miss_rate(self) -> float:
        """Figure 12: read miss rate including the shadow d-cache."""
        return ratio(self._counter("dcache_read_misses"),
                     self._counter("dcache_read_accesses"))

    @property
    def dcache_shadow_hit_fraction(self) -> float:
        """Figure 13: fraction of read hits that hit the shadow."""
        hits = (self._counter("dcache_l1_hits")
                + self._counter("dcache_shadow_hits"))
        return ratio(self._counter("dcache_shadow_hits"), hits)

    @property
    def icache_miss_rate(self) -> float:
        """Figure 14: i-cache miss rate including the shadow i-cache."""
        return ratio(self._counter("icache_misses"),
                     self._counter("icache_accesses"))

    @property
    def icache_shadow_hit_fraction(self) -> float:
        """Figure 15: fraction of i-cache hits that hit the shadow."""
        hits = (self._counter("icache_l1_hits")
                + self._counter("icache_shadow_hits"))
        return ratio(self._counter("icache_shadow_hits"), hits)

    def shadow_commit_rate(self, structure: str) -> float:
        """Figure 16: committed fraction of retired shadow entries."""
        return self.shadow_commit_rates.get(structure, 0.0)


@dataclass
class SimResult(FigureMetrics):
    """The JSON-serializable outcome of one :class:`SimJob`.

    Exposes the derived per-figure metrics of
    :class:`~repro.workloads.suite.WorkloadRun` (IPC, miss rates, shadow
    hit fractions, occupancy percentiles, commit rates) plus the attack
    verdict, so every consumer reads one result type.
    """

    job_key: str
    kind: str
    target: str
    policy: CommitPolicy
    cycles: int = 0
    instructions: int = 0
    halted_reason: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    # structure name -> {occupancy value -> cycle count}
    shadow_occupancy: Dict[str, Dict[int, int]] = field(default_factory=dict)
    shadow_commit_rates: Dict[str, float] = field(default_factory=dict)
    # attack outcome (kind == "attack" only)
    secret: Optional[int] = None
    leaked: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)
    # transport metadata, never serialized
    from_cache: bool = False

    # -- derived workload metrics (same API as WorkloadRun) ---------------

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def _counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def shadow_size_percentile(self, structure: str,
                               fraction: float = 0.9999) -> int:
        """Figures 6-9: shadow size covering ``fraction`` of cycles."""
        buckets = self.shadow_occupancy.get(structure)
        if not buckets:
            return 0
        histogram = Histogram(structure)
        for value, count in buckets.items():
            histogram.record(value, count)
        return histogram.percentile(fraction)

    # -- attack verdict ----------------------------------------------------

    @property
    def success(self) -> bool:
        """Whether the attack recovered the planted secret."""
        return self.leaked is not None and self.leaked == self.secret

    @property
    def closed(self) -> bool:
        return not self.success

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "job_key": self.job_key,
            "kind": self.kind,
            "target": self.target,
            "policy": self.policy.value,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "halted_reason": self.halted_reason,
            "counters": dict(self.counters),
            "shadow_occupancy": {
                name: {str(value): count for value, count in buckets.items()}
                for name, buckets in self.shadow_occupancy.items()},
            "shadow_commit_rates": dict(self.shadow_commit_rates),
            "secret": self.secret,
            "leaked": self.leaked,
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimResult":
        return cls(
            job_key=payload["job_key"],
            kind=payload["kind"],
            target=payload["target"],
            policy=CommitPolicy(payload["policy"]),
            cycles=payload["cycles"],
            instructions=payload["instructions"],
            halted_reason=payload.get("halted_reason", ""),
            counters=dict(payload.get("counters", {})),
            shadow_occupancy={
                name: {int(value): count for value, count in buckets.items()}
                for name, buckets in
                payload.get("shadow_occupancy", {}).items()},
            shadow_commit_rates=dict(payload.get("shadow_commit_rates", {})),
            secret=payload.get("secret"),
            leaked=payload.get("leaked"),
            details=dict(payload.get("details", {})),
        )


# ---------------------------------------------------------------------------
# job constructors
# ---------------------------------------------------------------------------

def workload_job(benchmark: str, policy: CommitPolicy,
                 instructions: int = DEFAULT_INSTRUCTION_BUDGET,
                 spec: MachineSpec = MachineSpec(),
                 backend: str = "cycle") -> SimJob:
    """A job running one suite benchmark on ``spec`` under one policy.

    ``backend`` selects the execution backend and always lands in
    ``params`` so the two backends' results never collide in the cache.
    """
    return SimJob(kind=WORKLOAD, target=benchmark, policy=policy,
                  instructions=instructions, params={"backend": backend},
                  spec=spec)


def attack_job(name: str, policy: CommitPolicy, secret: int = 42,
               spec: MachineSpec = MachineSpec(),
               backend: str = "cycle") -> SimJob:
    """A job running one attack PoC under one policy."""
    return SimJob(kind=ATTACK, target=name, policy=policy,
                  params={"secret": secret, "backend": backend}, spec=spec)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _json_clean(value: Any) -> Any:
    """Recursively coerce a value into JSON-representable primitives."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _json_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_clean(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def json_clean_details(details: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce an attack's free-form details dict for serialization."""
    return _json_clean(details)
