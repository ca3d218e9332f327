"""``repro.spec`` — the declarative hardware-description API.

* :class:`~repro.spec.machine_spec.MachineSpec` — one frozen, hashable
  value composing core, hierarchy, SafeSpec, predictor and BTB sizing,
  with ``to_dict``/``from_dict`` round-trip, a stable content
  ``digest()``, human-readable ``diff()``, and dotted-path ``derive()``.
* :data:`~repro.spec.presets.SPECS` — the decorator-based preset
  registry (``skylake-table1`` default, little/big cores, SafeSpec
  sizing variants); register your own with
  :func:`~repro.spec.presets.register_spec`.

Quickstart::

    from repro.spec import MachineSpec, get_spec

    small = get_spec("skylake-table1").derive(
        **{"core.rob_entries": 64, "hierarchy.l1d.size_bytes": 16 * 1024})
    machine = Machine.from_spec(small, policy=CommitPolicy.WFC)
"""

from repro.spec.machine_spec import (SPEC_SCHEMA_VERSION, MachineSpec,
                                     derive_from_strings)
from repro.spec.presets import (DEFAULT_SPEC, SPECS, get_spec, register_spec,
                                spec_description, spec_names)

__all__ = [
    "DEFAULT_SPEC",
    "MachineSpec",
    "SPECS",
    "SPEC_SCHEMA_VERSION",
    "derive_from_strings",
    "get_spec",
    "register_spec",
    "spec_description",
    "spec_names",
]
