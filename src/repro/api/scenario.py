"""Declarative scenarios and parameter-sweep grids.

A :class:`Scenario` is the user-facing description of one simulation —
what to run (a registered workload or attack), under which commit
policy, on which :class:`~repro.spec.MachineSpec`, with free-form
``params`` — validated
against the component registries at construction and lowered to a
content-hashable :class:`~repro.exec.job.SimJob` with :meth:`Scenario.job`.

A :class:`Sweep` expands a cartesian grid of benchmarks x policies x
hardware specs x named spec variants (e.g. ROB/LDQ/shadow-sizing
ablations) into a deterministic batch of scenarios, making
parameter-sweep studies a first-class, cacheable API instead of bespoke
scripts::

    sweep = Sweep(benchmarks=["mcf", "xz"],
                  policies=[CommitPolicy.WFC],
                  specs=["skylake-table1", "little-core"],
                  variants={f"rob{n}": {"core.rob_entries": n}
                            for n in (96, 128, 224)})
    result = Session(jobs=4).sweep(sweep)

``specs`` is the hardware axis: preset names (or a mapping of label ->
:class:`~repro.spec.MachineSpec`), each a distinct cache key.  Variant
overrides are :meth:`MachineSpec.derive` keys (dotted paths, or whole
sections such as ``{"core": CoreConfig(...)}``), applied on top of each
spec in the grid.

Expansion order is benchmark-major, then policy, then spec, then
variant (all in the order given), so job batches — and therefore cache
keys, progress lines and result rows — are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Union)

from repro.api.registry import ATTACKS, WORKLOADS
from repro.backends import BACKENDS
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.job import ATTACK, DEFAULT_INSTRUCTION_BUDGET, WORKLOAD, SimJob
from repro.spec import MachineSpec, get_spec

DEFAULT_VARIANT = "default"


@dataclass(frozen=True)
class Scenario:
    """One declarative simulation spec.

    Prefer the validating constructors :meth:`workload` and
    :meth:`attack`; ``params`` carries scenario-kind-specific knobs (an
    attack's planted ``secret``, future workload parameters) and flows
    into the job hash.  ``label`` is a human-readable tag for sweep
    points and progress reporting; it never affects the job hash.
    """

    kind: str
    target: str
    policy: CommitPolicy = CommitPolicy.BASELINE
    instructions: int = DEFAULT_INSTRUCTION_BUDGET
    # hash=False: a dict value would break the generated __hash__
    # (same treatment as SimJob.params); equality still compares it.
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)
    spec: MachineSpec = MachineSpec()
    backend: str = "cycle"
    label: str = ""

    def __post_init__(self) -> None:
        BACKENDS.entry(self.backend)    # unknown backends fail here

    @classmethod
    def workload(cls, benchmark: str,
                 policy: CommitPolicy = CommitPolicy.BASELINE, *,
                 instructions: int = DEFAULT_INSTRUCTION_BUDGET,
                 spec: MachineSpec = MachineSpec(),
                 backend: str = "cycle",
                 label: str = "", **params: Any) -> "Scenario":
        """A scenario running one registered suite benchmark."""
        WORKLOADS.entry(benchmark)      # unknown names fail here, loudly
        return cls(kind=WORKLOAD, target=benchmark, policy=policy,
                   instructions=instructions, params=params, spec=spec,
                   backend=backend, label=label)

    @classmethod
    def attack(cls, name: str,
               policy: CommitPolicy = CommitPolicy.BASELINE, *,
               secret: int = 42,
               instructions: int = DEFAULT_INSTRUCTION_BUDGET,
               spec: MachineSpec = MachineSpec(),
               backend: str = "cycle",
               label: str = "", **params: Any) -> "Scenario":
        """A scenario running one registered attack PoC.

        The planted ``secret`` is ordinary scenario data: it lands in
        ``params`` next to any attack-specific extras.
        """
        ATTACKS.entry(name)
        return cls(kind=ATTACK, target=name, policy=policy,
                   instructions=instructions,
                   params={"secret": secret, **params},
                   spec=spec, backend=backend, label=label)

    def job(self) -> SimJob:
        """Lower this scenario to its content-hashable job (the
        execution backend lands in the job's ``params``)."""
        return SimJob(kind=self.kind, target=self.target, policy=self.policy,
                      instructions=self.instructions,
                      params={**self.params, "backend": self.backend},
                      spec=self.spec)

    def describe(self) -> str:
        return self.label or self.job().describe()


@dataclass(frozen=True)
class SweepPoint:
    """The grid coordinates of one sweep cell."""

    benchmark: str
    policy: CommitPolicy
    variant: str
    spec: str = DEFAULT_VARIANT
    backend: str = "cycle"

    def describe(self) -> str:
        base = f"{self.benchmark}/{self.policy.value}/{self.variant}"
        if self.spec != DEFAULT_VARIANT:
            base = f"{base}/{self.spec}"
        if self.backend != "cycle":
            base = f"{base}@{self.backend}"
        return base


class Sweep:
    """A cartesian grid of benchmarks x policies x specs x variants.

    ``specs`` is the hardware axis: a sequence of preset names (looked
    up in :data:`repro.spec.SPECS`) or a mapping of label ->
    :class:`~repro.spec.MachineSpec`; omitted, every cell runs the
    default machine.  ``variants`` maps a variant name to the
    :meth:`MachineSpec.derive` overrides defining it — dotted paths
    (``"core.rob_entries"``) or whole sections (``"core"``) — which
    apply on top of each spec in the grid.  ``backends`` is the
    execution-backend axis (:data:`repro.backends.BACKENDS` names, e.g.
    ``("cycle", "fast")``) — one grid cell per backend, each with its
    own cache identity.  Benchmarks, preset names, backend names and
    override paths are validated up front so a typo fails before any
    simulation runs.
    """

    def __init__(self, benchmarks: Sequence[str],
                 policies: Sequence[CommitPolicy] = (CommitPolicy.BASELINE,),
                 instructions: int = DEFAULT_INSTRUCTION_BUDGET,
                 variants: Optional[Mapping[str, Mapping[str, Any]]] = None,
                 specs: Optional[Union[Sequence[str],
                                       Mapping[str, MachineSpec]]] = None,
                 backends: Sequence[str] = ("cycle",),
                 ) -> None:
        if not benchmarks:
            raise ConfigError("sweep needs at least one benchmark")
        if not policies:
            raise ConfigError("sweep needs at least one policy")
        if not backends:
            raise ConfigError("sweep needs at least one backend "
                              "(omit `backends` for the cycle core)")
        if variants is not None and not variants:
            # An explicitly empty axis is a degenerate grid, not a
            # request for the default variant — reject it like the
            # other empty axes instead of silently running defaults.
            raise ConfigError("sweep needs at least one variant "
                              "(omit `variants` for the default)")
        if specs is not None and not specs:
            raise ConfigError("sweep needs at least one spec "
                              "(omit `specs` for the default machine)")
        for benchmark in benchmarks:
            WORKLOADS.entry(benchmark)
        for backend in backends:
            BACKENDS.entry(backend)
        self.benchmarks = list(benchmarks)
        self.policies = list(policies)
        self.backends = list(backends)
        self.instructions = instructions
        self.specs: Dict[str, MachineSpec] = {}
        if specs is None:
            self.specs[DEFAULT_VARIANT] = MachineSpec()
        elif isinstance(specs, Mapping):
            for label, spec in specs.items():
                if not isinstance(spec, MachineSpec):
                    raise ConfigError(
                        f"spec {label!r} must be a MachineSpec, "
                        f"got {type(spec).__name__}")
                self.specs[label] = spec
        else:
            for name in specs:
                if not isinstance(name, str):
                    raise ConfigError(
                        "the specs sequence takes preset names; pass a "
                        "mapping of label -> MachineSpec for ad-hoc specs")
                self.specs[name] = get_spec(name)
        self.variants: Dict[str, Dict[str, Any]] = {}
        if variants is None:
            variants = {DEFAULT_VARIANT: {}}
        for name, overrides in variants.items():
            for key in overrides:
                # Paths validate structurally here; value errors
                # surface when scenarios are built.
                MachineSpec.resolve_path(key)
            self.variants[name] = dict(overrides)

    def points(self) -> List[SweepPoint]:
        """Grid cells in expansion order (benchmark, policy, spec,
        variant, backend)."""
        return [SweepPoint(benchmark, policy, variant, spec, backend)
                for benchmark in self.benchmarks
                for policy in self.policies
                for spec in self.specs
                for variant in self.variants
                for backend in self.backends]

    def _scenario_for(self, point: SweepPoint) -> Scenario:
        spec = self.specs[point.spec].derive(**self.variants[point.variant])
        return Scenario.workload(point.benchmark, point.policy,
                                 instructions=self.instructions,
                                 backend=point.backend,
                                 label=point.describe(), spec=spec)

    def scenarios(self) -> List[Scenario]:
        """One workload scenario per grid cell, in :meth:`points` order."""
        return [self._scenario_for(point) for point in self.points()]

    def jobs(self) -> List[SimJob]:
        """The deterministic job batch this sweep expands to."""
        return [scenario.job() for scenario in self.scenarios()]

    def __len__(self) -> int:
        return (len(self.benchmarks) * len(self.policies)
                * len(self.specs) * len(self.variants)
                * len(self.backends))
