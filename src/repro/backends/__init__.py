"""Execution backends: interchangeable cores behind one ``Machine``.

A backend turns (program, machine state) into a
:class:`~repro.pipeline.core.RunResult`.  Two are built in:

* ``"cycle"`` — the cycle-accurate out-of-order core
  (:mod:`repro.pipeline.core`), simulating every fetch/issue/commit
  event.  This is the reference micro-architectural model the paper's
  figures are defined against.
* ``"fast"`` — a fast-functional core (:mod:`repro.backends.fast`) that
  lowers each decoded :class:`~repro.isa.program.Program` into
  specialized per-instruction closures and executes straight-line
  regions at interpreter speed, engaging the real branch predictor,
  BTB, cache hierarchy and SafeSpec shadow engine only where timing
  and leakage matter (committed memory accesses, mispredicted-branch
  and fault speculation windows).

The registry follows the same decorator pattern as
:data:`~repro.api.registry.ATTACKS` /
:data:`~repro.api.registry.PREDICTORS`: backends register lazily on
first lookup, and :meth:`Registry.create` instantiates one per
:class:`~repro.machine.Machine`.

Accuracy contract (held by ``repro verify --backend fast``): both
backends must produce bit-identical *architectural* state (registers,
memory, retire count, fault events — ``rdtsc`` excepted, which is
architecturally timing-tainted), identical leak/no-leak verdicts for
every registered attack under every policy, and cycle counts that
agree within the tolerance documented in the README's Backends
section.  Micro-architectural counters (cache hit/miss splits, shadow
occupancy histograms) are backend-specific detail and are *not* part
of the contract.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, List

from repro.api.registry import Registry

DEFAULT_BACKEND = "cycle"

# The built-in backends in presentation order: the reference model
# first.  Registration order cannot serve, since importing one backend
# module directly registers it before the loader runs.
_BUILTIN_BACKENDS = ("cycle", "fast")


def _load_backends() -> None:
    for name in _BUILTIN_BACKENDS:
        importlib.import_module(f"repro.backends.{name}")


BACKENDS = Registry("backend", loader=_load_backends)


def register_backend(name: str, **metadata: Any) -> Callable[[Any], Any]:
    """Register an execution-backend class.

    The class is instantiated once per :class:`~repro.machine.Machine`
    with no arguments and must provide
    ``run(machine, program, *, max_instructions, privilege,
    fault_handler_pc, initial_registers) -> RunResult``.
    """
    return BACKENDS.register(name, **metadata)


def backend_names() -> List[str]:
    """Registered backend names: the built-ins in their declared order,
    then any others in registration order."""
    names = BACKENDS.names()
    builtin = [name for name in _BUILTIN_BACKENDS if name in names]
    return builtin + [name for name in names if name not in builtin]


def create_backend(name: str) -> Any:
    """Instantiate one backend by name (unknown names fail loudly)."""
    return BACKENDS.create(name)
