"""The cycle-accurate backend: a thin adapter over ``pipeline.Core``.

Each run builds a fresh single-use :class:`~repro.pipeline.core.Core`
over the machine's persistent state (hierarchy, predictor, BTB,
SafeSpec engine) — exactly what ``Machine.run`` always did before
backends became selectable — and hands it the machine's observer.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.backends import register_backend
from repro.isa.program import Program
from repro.memory.paging import PrivilegeLevel
from repro.pipeline.core import Core, RunResult


@register_backend("cycle")
class CycleBackend:
    """Full out-of-order, per-cycle simulation (the reference model)."""

    def run(self, machine, program: Program, *,
            max_instructions: Optional[int] = None,
            privilege: PrivilegeLevel = PrivilegeLevel.USER,
            fault_handler_pc: Optional[int] = None,
            initial_registers: Optional[Dict[int, int]] = None,
            start_pc: Optional[int] = None
            ) -> RunResult:
        core = Core(
            program, machine.hierarchy,
            config=machine.core_config,
            predictor=machine.predictor,
            btb=machine.btb,
            rsb=machine.rsb,
            engine=machine.engine,
            privilege=privilege,
            fault_handler_pc=fault_handler_pc,
            initial_registers=initial_registers,
            start_pc=start_pc,
            observer=machine.observer,
        )
        return core.run(max_instructions=max_instructions)
