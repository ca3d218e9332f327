"""High-level facade: a persistent simulated machine.

A :class:`Machine` owns the long-lived micro-architectural state — memory
hierarchy, branch predictor, BTB, and (when a SafeSpec policy is active)
the SafeSpec engine — and runs programs on it.  Running several programs
in sequence on one machine models consecutive executions on one physical
core, which is the setting mistraining attacks (Spectre) require::

    machine = Machine(policy=CommitPolicy.WFC)
    machine.map_user_range(0x10000, 4096)
    machine.write_word(0x10000, 42)
    result = machine.run(program)
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional

from repro.api.registry import PREDICTORS
from repro.backends import DEFAULT_BACKEND, BACKENDS
from repro.core.policy import CommitPolicy
from repro.core.safespec import SafeSpecConfig, SafeSpecEngine
from repro.frontend.btb import BranchTargetBuffer, BTBConfig
from repro.frontend.rsb import ReturnStackBuffer, RSBConfig
from repro.isa.program import Program
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.dram import MainMemory
from repro.memory.paging import (MappedWords, PagePermissions, PageTable,
                                 PrivilegeLevel)
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import RunResult
from repro.spec import MachineSpec


class Machine(MappedWords):
    """A simulated CPU plus memory system with a selectable commit policy.

    Prefer describing a machine shape as a
    :class:`~repro.spec.MachineSpec` and building via :meth:`from_spec`;
    the loose keyword arguments remain for direct construction.

    Arguments:
        policy: ``BASELINE`` (insecure), ``WFB`` or ``WFC``.
        core_config: pipeline sizing, Table I defaults.
        hierarchy_config: memory sizing, Table II defaults.
        safespec_config: full SafeSpec configuration; when given, its
            ``policy`` overrides the ``policy`` argument.  Use this to
            select sizing modes / full policies for the TSA experiments.
        btb_config: branch-target-buffer geometry.
        backend: execution backend name (``repro.backends``): ``"cycle"``
            for the cycle-accurate out-of-order core, ``"fast"`` for the
            lowered fast-functional core.

    ``observer`` is the one event slot: ``None`` or the callable the
    cycle backend hands to each ``Core`` it runs.  A tracer's or an
    anomaly detector's ``attach``/``detach`` fills and empties it.
    """

    def __init__(self, policy: CommitPolicy = CommitPolicy.BASELINE,
                 core_config: Optional[CoreConfig] = None,
                 hierarchy_config: Optional[HierarchyConfig] = None,
                 safespec_config: Optional[SafeSpecConfig] = None,
                 page_table: Optional[PageTable] = None,
                 predictor: str = "bimodal",
                 btb_config: Optional[BTBConfig] = None,
                 rsb_config: Optional[RSBConfig] = None,
                 backend: str = DEFAULT_BACKEND) -> None:
        self.core_config = core_config or CoreConfig()
        # The machine is the single owner of the page table: the
        # hierarchy (and anything below it) always receives this one
        # explicitly and never defaults its own.
        self.page_table = page_table or PageTable()
        self.hierarchy = MemoryHierarchy(hierarchy_config,
                                         page_table=self.page_table)
        # Registry dispatch: the lookup error lists every registered
        # predictor (SafeSpec makes no assumption on the predictor).
        self.predictor = PREDICTORS.create(predictor)
        self.btb = BranchTargetBuffer(btb_config)
        self.rsb = ReturnStackBuffer(rsb_config)
        if safespec_config is not None:
            self.policy = safespec_config.policy
        else:
            self.policy = policy
        if self.policy.uses_shadow:
            config = safespec_config or SafeSpecConfig(policy=self.policy)
            self.engine: Optional[SafeSpecEngine] = SafeSpecEngine(
                config, self.hierarchy,
                ldq_entries=self.core_config.ldq_entries,
                stq_entries=self.core_config.stq_entries,
                rob_entries=self.core_config.rob_entries)
        else:
            self.engine = None
        # Backend dispatch mirrors the predictor lookup above: unknown
        # names fail loudly, listing every registered backend.
        self.backend = backend
        self._backend_impl = BACKENDS.create(backend)
        self.observer: Optional[Callable[..., None]] = None

    @classmethod
    def from_spec(cls, spec: MachineSpec = MachineSpec(), *,
                  policy: Optional[CommitPolicy] = None,
                  page_table: Optional[PageTable] = None,
                  backend: str = DEFAULT_BACKEND) -> "Machine":
        """Build a machine from a declarative hardware description.

        ``spec`` defaults to the Table I/II machine (``MachineSpec()``).
        ``policy`` is the per-run axis: when given it wins over the
        policy recorded in ``spec.safespec`` (the spec describes shadow
        *sizing*; the sweep decides the commit policy), and a
        non-shadow policy simply drops the SafeSpec section.  When
        ``policy`` is omitted it comes from ``spec.safespec`` or
        defaults to ``BASELINE``.
        """
        safespec = spec.safespec
        if policy is None:
            policy = (safespec.policy if safespec is not None
                      else CommitPolicy.BASELINE)
        if not policy.uses_shadow:
            safespec = None
        elif safespec is not None and safespec.policy is not policy:
            safespec = dataclasses.replace(safespec, policy=policy)
        return cls(policy=policy,
                   core_config=spec.core,
                   hierarchy_config=spec.hierarchy,
                   safespec_config=safespec,
                   page_table=page_table,
                   predictor=spec.predictor,
                   btb_config=spec.btb,
                   rsb_config=spec.rsb,
                   backend=backend)

    # ------------------------------------------------------------------
    # memory setup helpers
    # ------------------------------------------------------------------

    def map_user_range(self, start_vaddr: int, size: int) -> None:
        """Identity-map a user-accessible RWX range."""
        self.page_table.map_range(start_vaddr, size, PagePermissions())

    def map_kernel_range(self, start_vaddr: int, size: int) -> None:
        """Identity-map a supervisor-only range (the Meltdown target)."""
        self.page_table.map_range(
            start_vaddr, size,
            PagePermissions(supervisor_only=True))

    @property
    def memory(self) -> MainMemory:
        """Backing memory (what :meth:`read_word` and friends access)."""
        return self.hierarchy.memory

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, program: Program,
            max_instructions: Optional[int] = None,
            privilege: PrivilegeLevel = PrivilegeLevel.USER,
            fault_handler_pc: Optional[int] = None,
            initial_registers: Optional[Dict[int, int]] = None,
            start_pc: Optional[int] = None,
            map_code: bool = True) -> RunResult:
        """Execute ``program`` to completion on this machine.

        ``start_pc`` resumes execution at an arbitrary instruction in the
        code image (checkpoint restore); default is the program start.
        ``map_code`` (default) identity-maps the program's code range as
        executable user pages before running.
        """
        if map_code and program.code_bytes:
            self.page_table.map_range(program.code_base, program.code_bytes)
        return self._backend_impl.run(
            self, program,
            max_instructions=max_instructions,
            privilege=privilege,
            fault_handler_pc=fault_handler_pc,
            initial_registers=initial_registers,
            start_pc=start_pc,
        )

    # ------------------------------------------------------------------
    # attacker-visible probes (committed state only)
    # ------------------------------------------------------------------

    def probe_latency(self, vaddr: int) -> int:
        """Latency a committed, timed load at ``vaddr`` would see now."""
        return self.hierarchy.probe_data_latency(vaddr)

    def probe_fetch_latency(self, vaddr: int) -> int:
        """Latency a committed instruction fetch at ``vaddr`` would see
        now (receiver for the I-cache attack variant)."""
        return self.hierarchy.probe_fetch_latency(vaddr)

    def probe_latencies(self, vaddrs: Iterable[int],
                        side: str = "d") -> List[int]:
        """:meth:`probe_latency` (``side="d"``) or
        :meth:`probe_fetch_latency` (``side="i"``) of every address,
        translating each page once (a receiver's whole scan)."""
        return self.hierarchy.probe_latencies(side, vaddrs)

    def probe_translation_latency(self, vaddr: int, side: str = "d") -> int:
        """Translation (TLB/page-walk) latency a committed access would
        see now (receiver for the TLB attack variants)."""
        return self.hierarchy.probe_translation_latency(side, vaddr)

    def flush_address(self, vaddr: int) -> None:
        """clflush the line containing ``vaddr`` (attack setup)."""
        translation = self.page_table.lookup(vaddr)
        if translation is None:
            raise KeyError(f"vaddr {vaddr:#x} is not mapped")
        self.hierarchy.clflush(translation.physical(vaddr))
