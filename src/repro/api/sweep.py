"""Declarative parameter-sweep grids.

A :class:`Sweep` expands a cartesian grid of benchmarks x policies x
hardware specs x named spec variants (e.g. ROB/LDQ/shadow-sizing
ablations) into a deterministic batch of
:func:`~repro.exec.job.workload_job` jobs, making parameter-sweep
studies a first-class, cacheable API instead of bespoke scripts::

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

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.api.registry import WORKLOADS
from repro.backends import BACKENDS
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec.job import (DEFAULT_INSTRUCTION_BUDGET, SimJob,
                            workload_job)
from repro.spec import MachineSpec, get_spec

DEFAULT_VARIANT = "default"


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
                # surface when jobs are built.
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

    def jobs(self) -> List[SimJob]:
        """One workload job per grid cell, in :meth:`points` order."""
        return [workload_job(
            point.benchmark, point.policy, instructions=self.instructions,
            spec=self.specs[point.spec].derive(**self.variants[point.variant]),
            backend=point.backend) for point in self.points()]

    def __len__(self) -> int:
        return (len(self.benchmarks) * len(self.policies)
                * len(self.specs) * len(self.variants)
                * len(self.backends))
