"""``repro.api`` — the unified public API.

Three layers, each usable on its own:

* :mod:`repro.api.registry` — decorator-based component registries
  (:data:`~repro.api.registry.ATTACKS`,
  :data:`~repro.api.registry.WORKLOADS`,
  :data:`~repro.api.registry.PREDICTORS`); adding a scenario is one
  decorated function in one module.
* :mod:`repro.api.sweep` — declarative :class:`Sweep` grids over
  benchmarks x policies x machine specs x spec variants, expanded to
  :class:`~repro.exec.job.SimJob` batches.
* :mod:`repro.api.session` — the :class:`Session` facade owning
  executor + cache wiring: ``run`` takes a batch of jobs (built with
  :func:`~repro.exec.job.workload_job` and
  :func:`~repro.exec.job.attack_job`); ``matrix`` / ``figures`` /
  ``sweep`` / ``verify`` / ``sample`` build and run the paper's batches.

Quickstart::

    from repro.api import Session, Sweep
    from repro import CommitPolicy

    session = Session(jobs=4)
    print(session.matrix()["meltdown"]["wfb"].closed)   # False: Table III
    result = session.sweep(Sweep(
        benchmarks=["mcf"], policies=[CommitPolicy.WFC],
        variants={f"rob{n}": {"core.rob_entries": n} for n in (96, 224)}))

The sweep and session layers import lazily so that low-level modules
(attacks, workload profiles, predictors) can register themselves via
``repro.api.registry`` without dragging the whole API — and its
analysis-layer dependencies — into their import graph.
"""

from repro.api.registry import (ATTACKS, PREDICTORS, WORKLOADS, Registry,
                                RegistryEntry, attack_names,
                                expected_closed, register_attack,
                                register_predictor, register_workload)

_LAZY = {
    "Sweep": "repro.api.sweep",
    "SweepPoint": "repro.api.sweep",
    "MATRIX_POLICIES": "repro.api.session",
    "Session": "repro.api.session",
    "SweepResult": "repro.api.session",
}

__all__ = [
    "ATTACKS",
    "MATRIX_POLICIES",
    "PREDICTORS",
    "Registry",
    "RegistryEntry",
    "Session",
    "Sweep",
    "SweepPoint",
    "SweepResult",
    "WORKLOADS",
    "attack_names",
    "expected_closed",
    "register_attack",
    "register_predictor",
    "register_workload",
]


def __getattr__(name):
    if name in _LAZY:
        import importlib

        value = getattr(importlib.import_module(_LAZY[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
