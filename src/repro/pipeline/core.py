"""The out-of-order core: fetch, dispatch, issue, execute, commit, squash.

The model is execution-driven and structure-accurate: the reorder buffer,
issue queue, load/store queues, functional-unit ports and branch-prediction
structures all have the paper's (Table I) sizes and impose the paper's
ordering rules.  Three properties essential to the reproduced attacks are
modelled faithfully:

* **P1 — deferred permission checks.**  A load from a supervisor page
  executes and returns data speculatively; the fault is raised only when
  the load reaches the head of the ROB (commit).  This enables Meltdown.
* **P2 — speculative side effects.**  Wrong-path instructions execute and
  perturb the caches/TLBs (baseline) or the shadow structures (SafeSpec).
  This is the covert channel every speculation attack needs.
* **P3 — trainable shared predictors.**  The direction predictor and the
  untagged BTB are updated at branch resolution with no privilege checks,
  preserving the mistraining/poisoning surface of Spectre v1/v2.

Commit policies (:class:`~repro.core.policy.CommitPolicy`) select where
speculative fills go: directly into the hierarchy (BASELINE) or, with
the micro-op's sequence number as the access's owner, into the SafeSpec
shadow structures (WFB/WFC), with promotion timing per policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.core.policy import CommitPolicy
from repro.core.safespec import SafeSpecEngine
from repro.core.shadow import FullPolicy
from repro.errors import SimulationError
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.predictors import BimodalPredictor
from repro.frontend.rsb import ReturnStackBuffer
from repro.isa.instructions import AluOp, INSTRUCTION_BYTES, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, WORD_MASK
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.paging import PrivilegeLevel
from repro.pipeline.config import CoreConfig
from repro.pipeline.issue import FunctionalUnits, IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.uop import (COMMITTED, DISPATCHED, DONE, ISSUED,
                                SQUASHED, DynUop)
from repro.statistics import StatRegistry

_FETCH_BUFFER_CAP = 24
_PROGRESS_GUARD_CYCLES = 100_000
_BY_SEQ = attrgetter("seq")

# Opcodes under module names: the per-micro-op tests below read a global
# instead of an ``Opcode.X`` class attribute, which on Python 3.11 costs
# several times as much.
_ALU, _LOADIMM, _LOAD, _STORE = (Opcode.ALU, Opcode.LOADIMM, Opcode.LOAD,
                                 Opcode.STORE)
_BRANCH, _JMP, _JMPI, _CALL, _RET = (Opcode.BRANCH, Opcode.JMP, Opcode.JMPI,
                                     Opcode.CALL, Opcode.RET)
_CLFLUSH, _RDTSC, _FENCE, _HALT = (Opcode.CLFLUSH, Opcode.RDTSC,
                                   Opcode.FENCE, Opcode.HALT)
_MUL = AluOp.MUL


@dataclass
class FaultEvent:
    """An architectural fault raised at commit."""

    cycle: int
    pc: int
    vaddr: int
    kind: str


@dataclass
class RunResult:
    """Summary of one program execution."""

    cycles: int
    instructions: int
    registers: Tuple[int, ...]
    halted_reason: str
    fault_events: List[FaultEvent] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    # Architectural PC of the instruction that would have retired next.
    # Set only on ``budget`` stops (the resume point checkpointing needs);
    # None when the program halted, faulted, or ran off the code image.
    next_pc: Optional[int] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def reg(self, name_or_index: Union[str, int]) -> int:
        """Architectural register value at halt, by name ('r3') or index."""
        if isinstance(name_or_index, str):
            from repro.isa.registers import register_index

            name_or_index = register_index(name_or_index)
        return self.registers[name_or_index]


class Core:
    """One execution of a program on the simulated out-of-order core.

    A :class:`Core` is single-use: construct, :meth:`run`, read results.
    Persistent micro-architectural state (caches, TLBs, predictors, BTB,
    SafeSpec engine) lives outside and is passed in, so consecutive runs
    on the same structures model consecutive executions on one CPU — the
    setting every mistraining attack needs.

    The clock is an event horizon: :meth:`run` steps a cycle only when
    some stage can act.  After a cycle on which no stage acted, nothing
    changes until the next event (see :meth:`_cycles_to_next_event`),
    so the clock jumps there and the engine's occupancy clock advances
    by the whole span at once.  Every simulated statistic — cycles,
    counters, occupancy histograms, fault cycles — is the same as
    stepping every cycle.

    ``observer(kind, cycle, uop)``, when given, is called right after
    each ``fetch``, ``dispatch``, ``issue``, ``commit``, ``squash`` and
    ``fault`` event, and as ``("cycle", cycle, None)`` at the start of
    every stepped cycle.  Without one, an event costs an ``is`` test.
    """

    def __init__(self, program: Program, hierarchy: MemoryHierarchy,
                 config: Optional[CoreConfig] = None,
                 predictor: Optional[BimodalPredictor] = None,
                 btb: Optional[BranchTargetBuffer] = None,
                 rsb: Optional[ReturnStackBuffer] = None,
                 engine: Optional[SafeSpecEngine] = None,
                 privilege: PrivilegeLevel = PrivilegeLevel.USER,
                 fault_handler_pc: Optional[int] = None,
                 initial_registers: Optional[Dict[int, int]] = None,
                 start_pc: Optional[int] = None,
                 observer: Optional[Callable[..., None]] = None) -> None:
        self.program = program
        self.hierarchy = hierarchy
        self.config = config or CoreConfig()
        self.predictor = predictor or BimodalPredictor()
        self.btb = btb or BranchTargetBuffer()
        # `is not None`: an empty RSB is falsy (it has __len__).
        self.rsb = rsb if rsb is not None else ReturnStackBuffer()
        self.engine = engine
        self.policy = engine.config.policy if engine else CommitPolicy.BASELINE
        self.privilege = privilege
        self.fault_handler_pc = fault_handler_pc
        self.observer = observer

        self.cycle = 0
        self.regfile: List[int] = [0] * NUM_REGISTERS
        for reg, value in (initial_registers or {}).items():
            self.regfile[reg] = value & WORD_MASK

        self.rob = ReorderBuffer(self.config.rob_entries)
        self.iq = IssueQueue(self.config.iq_entries)
        self.lsq = LoadStoreQueue(
            self.config.ldq_entries, self.config.stq_entries,
            mem_dep_speculation=self.config.mem_dep_speculation)
        self.fus = FunctionalUnits(self.config)

        # Per-cycle configuration scalars, hoisted out of the hot loop.
        cfg = self.config
        self._commit_width = cfg.commit_width
        self._issue_width = cfg.issue_width
        self._fetch_width = cfg.fetch_width
        self._front_end_depth = cfg.front_end_depth
        self._mispredict_penalty = cfg.mispredict_penalty
        self._alu_latency = cfg.alu_latency
        self._mul_latency = cfg.mul_latency
        self._store_forward_latency = cfg.store_forward_latency
        self._mem_dep_spec = cfg.mem_dep_speculation
        self._iline_mask = ~(hierarchy.config.l1i.line_bytes - 1)
        self._l1i_hit_latency = hierarchy.config.l1i.hit_latency
        # Only WFB tracks branch dependence, and only BLOCK gates issue
        # on shadow space: elsewhere those paths cannot apply.
        self._wfb = self.policy is CommitPolicy.WFB
        self._block_on_full = (
            engine is not None
            and engine.config.full_policy is FullPolicy.BLOCK)

        self._rename: Dict[int, DynUop] = {}
        self._fetch_buffer: Deque[DynUop] = deque()
        self._executing: List[DynUop] = []
        self._unresolved_branches: List[int] = []   # seqs, program order
        self._inflight_fences = 0
        self._last_refreshed_iline = -1
        self._last_refreshed_ipage = -1
        self._fetch_pc = program.code_base if start_pc is None else start_pc
        self._fetch_stall_until = 0
        self._fetch_halted = False
        self._last_fetch_line: Optional[int] = None
        self._next_seq = 0
        self._halted_reason = ""
        self._next_pc: Optional[int] = None
        self._fault_events: List[FaultEvent] = []
        self._last_commit_cycle = 0
        self._committed = 0
        self._max_instructions: Optional[int] = None

        # Hot-path statistics are plain integer attributes, batched into
        # the registry's counters once at the end of :meth:`run` — one
        # ``+= 1`` on the critical path instead of a bound-method call.
        # _STAT_FIELDS is the single (counter name, attribute) table
        # driving both registration (which fixes the historical key
        # order of the ``counters`` dict) and the end-of-run flush.
        self.stats = StatRegistry("core")
        for name, attr in self._STAT_FIELDS:
            self.stats.counter(name)
            setattr(self, attr, 0)

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        """Execute until HALT, a fault without handler, or the budget."""
        self._max_instructions = max_instructions
        # Loop-invariant bindings: every structure consulted per cycle is
        # mutated in place (never rebound), so one lookup each suffices.
        step = self._step
        engine = self.engine
        rob_entries = self.rob._entries
        fetch_buffer = self._fetch_buffer
        program_fetch = self.program.fetch
        max_cycles = self.config.max_cycles
        while not self._halted_reason:
            acted = step()
            if not self._halted_reason:
                # The cycle just simulated, plus — when no stage acted —
                # every following cycle on which none can: their shadow
                # occupancy is unchanged, so the span is sampled at once.
                span = 1 if acted else self._cycles_to_next_event(max_cycles)
                if engine is not None:
                    engine.sample_occupancy(span)
                self.cycle += span
            if (not rob_entries and not fetch_buffer
                    and not self._executing
                    and self.cycle >= self._fetch_stall_until
                    and program_fetch(self._fetch_pc) is None):
                # Control flow left the code image with nothing in flight;
                # a real CPU would take a fetch fault here.
                self._halted_reason = "ran_off_code"
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={max_cycles}")
            if (self.cycle - self._last_commit_cycle > _PROGRESS_GUARD_CYCLES
                    and rob_entries):
                raise SimulationError(
                    f"no commit for {_PROGRESS_GUARD_CYCLES} cycles "
                    f"(head={self.rob.head()!r})")
        self._flush_stats()
        counters = self.stats.as_dict()
        counters["cycles"] = self.cycle
        return RunResult(
            cycles=self.cycle,
            instructions=self._committed,
            registers=tuple(self.regfile),
            halted_reason=self._halted_reason,
            fault_events=list(self._fault_events),
            counters=counters,
            next_pc=self._next_pc,
        )

    # (registry counter name, batched int attribute) — registration
    # order is the historical ``counters`` dict key order.
    _STAT_FIELDS = (
        ("committed", "_n_committed"),
        ("squashed", "_n_squashed"),
        ("branches", "_n_branches"),
        ("mispredicts", "_n_mispredicts"),
        ("faults", "_n_faults"),
        ("dcache_read_accesses", "_n_d_access"),
        ("dcache_read_misses", "_n_d_miss"),
        ("dcache_l1_hits", "_n_d_l1_hits"),
        ("dcache_shadow_hits", "_n_d_shadow_hits"),
        ("icache_accesses", "_n_i_access"),
        ("icache_misses", "_n_i_miss"),
        ("icache_l1_hits", "_n_i_l1_hits"),
        ("icache_shadow_hits", "_n_i_shadow_hits"),
        ("store_forwards", "_n_forwards"),
    )

    def _flush_stats(self) -> None:
        """Fold the batched integer statistics into the registry."""
        counter = self.stats.counter
        for name, attr in self._STAT_FIELDS:
            counter(name).value = getattr(self, attr)

    # ------------------------------------------------------------------
    # the cycle
    # ------------------------------------------------------------------

    def _step(self) -> bool:
        """Run every stage for ``self.cycle``; True when any stage acted.

        A stage acts when it commits, writes back, issues (a replayed
        load included), dispatches or fetches anything; squashes and
        fetch redirects happen only inside commit and writeback.
        """
        # Each stage's idle early-out is checked here, before the call:
        # on a stall cycle (waiting on memory) most stages have nothing
        # to do and the call overhead itself was the dominant cost.
        observer = self.observer
        if observer is not None:
            observer("cycle", self.cycle, None)
        if self.fus._dirty:
            self.fus.new_cycle()
        acted = False
        if self.rob._entries:
            acted = self._commit_stage()
            if self._halted_reason:
                return True
        if self._executing and self._writeback_stage():
            acted = True
        if self.iq._ready and self._issue_stage():
            acted = True
        if self._fetch_buffer and self._dispatch_stage():
            acted = True
        if (not self._fetch_halted and self.cycle >= self._fetch_stall_until
                and self._fetch_stage()):
            acted = True
        return acted

    def _cycles_to_next_event(self, max_cycles: int) -> int:
        """Cycles from the idle ``self.cycle`` to the next one on which
        some stage can act (at least 1).

        A cycle on which no stage acted changed nothing, so every later
        cycle stays idle until one of these events:

        * the ROB head is done: it commits the cycle after;
        * an executing micro-op completes: writeback on that cycle;
        * the fetch-buffer head has waited out the front-end depth;
        * the fetch stall ends (unless fetch is halted at a HALT).

        Stalls on a full ROB, IQ, LSQ or fetch buffer, on a fence, on an
        older store or on a full shadow structure clear only through one
        of these.  An event already due is a resource stall, not a future
        event.  The span is clamped so ``max_cycles`` and the no-commit
        guard fire on the cycle they would under per-cycle stepping.
        """
        following = self.cycle + 1
        horizon = max_cycles
        entries = self.rob._entries
        if entries:
            horizon = min(horizon, self._last_commit_cycle
                          + _PROGRESS_GUARD_CYCLES + 1)
            head = entries[0]
            if head.state is DONE:
                horizon = min(horizon, head.done_cycle + 1)
        for uop in self._executing:
            if uop.state is ISSUED and uop.done_cycle < horizon:
                horizon = uop.done_cycle
        if self._fetch_buffer:
            ready = self._fetch_buffer[0].fetch_cycle + self._front_end_depth
            if following <= ready < horizon:
                horizon = ready
        stall_until = self._fetch_stall_until
        if not self._fetch_halted and following <= stall_until < horizon:
            horizon = stall_until
        return max(horizon - self.cycle, 1)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit_stage(self) -> bool:
        entries = self.rob._entries
        cycle = self.cycle
        observer = self.observer
        committed = False
        for _ in range(self._commit_width):
            if not entries:
                break
            head = entries[0]
            if head.state is not DONE or head.done_cycle >= cycle:
                break
            if head.fault is not None:
                self._raise_fault(head)
                if observer is not None:
                    observer("fault", cycle, head)
                return True
            self._commit_uop(head)
            if observer is not None:
                observer("commit", cycle, head)
            committed = True
            if self._halted_reason:
                break
        return committed

    def _commit_uop(self, uop: DynUop) -> None:
        self.rob._entries.popleft()
        uop.state = COMMITTED
        self._last_commit_cycle = self.cycle
        is_mem = uop.is_load or uop.is_store
        # Only a fetch-line leader or a memory access made owned
        # accesses: it alone has recency to restore and shadow state to
        # promote.
        accessed = self.engine is not None and (is_mem
                                                or uop.ifetch_line >= 0)
        if accessed:
            self._refresh_recency(uop)
        inst = uop.inst
        if inst.writes_register:
            if uop.result is not None:
                self.regfile[inst.rd] = uop.result & WORD_MASK
            if self._rename.get(inst.rd) is uop:
                del self._rename[inst.rd]
        if uop.is_store:
            if uop.paddr is None:
                raise SimulationError(f"store committed w/o address: {uop!r}")
            self.hierarchy.commit_store(uop.paddr, uop.store_value or 0)
        elif uop.opcode is _CLFLUSH:
            self._commit_clflush(uop)
        if accessed:
            self.engine.on_commit(uop.seq)
        if is_mem:
            self.lsq.remove(uop)
        self._committed += 1
        self._n_committed += 1
        if uop.opcode is _HALT:
            self._halt("halt")
        elif (self._max_instructions is not None
              and self._committed >= self._max_instructions):
            # The budget stop is artificial: record where the next
            # instruction would have retired so a checkpointed run can
            # resume exactly here (the budget _halt squashes everything
            # in flight, so architectural state is the committed state).
            self._next_pc = (uop.actual_target
                             if uop.actual_taken
                             and uop.actual_target is not None
                             else uop.pc + INSTRUCTION_BYTES)
            self._halt("budget")

    def _refresh_recency(self, uop: DynUop) -> None:
        """Restore the architectural cache touch of a committing micro-op.

        SafeSpec's speculative lookups are deliberately non-perturbing
        (not even replacement state changes, Section IV-A) — but the
        instruction *did* commit, so its access is architectural and must
        refresh recency, exactly as the baseline's access-time touch did.
        Only squashed instructions leave no trace.
        """
        if (uop.ifetch_level in ("L1", "L2", "L3")
                and uop.ifetch_line != self._last_refreshed_iline):
            self.hierarchy.refresh_line_recency("i", uop.ifetch_line)
            self._last_refreshed_iline = uop.ifetch_line
        if uop.ifetch_line >= 0:
            page = uop.pc & ~4095
            if page != self._last_refreshed_ipage:
                self.hierarchy.refresh_committed_translation("i", uop.pc)
                if uop.iwalked:
                    self.hierarchy.refresh_walk_lines(uop.pc)
                self._last_refreshed_ipage = page
        if (uop.is_load or uop.is_store) and uop.vaddr is not None:
            self.hierarchy.refresh_committed_translation("d", uop.vaddr)
            if uop.dwalked:
                self.hierarchy.refresh_walk_lines(uop.vaddr)
        if uop.is_load and uop.hit_level in ("L1", "L2", "L3") \
                and uop.paddr is not None:
            self.hierarchy.refresh_line_recency("d", uop.paddr)

    def _commit_clflush(self, uop: DynUop) -> None:
        """clflush takes architectural effect at commit: evict the line
        from every committed cache level."""
        if uop.vaddr is None:
            return
        translation = self.hierarchy.page_table.lookup(uop.vaddr)
        if translation is None:
            return
        self.hierarchy.clflush(translation.physical(uop.vaddr))

    def _halt(self, reason: str) -> None:
        self._halted_reason = reason
        for squashed in self.rob.squash_all():
            self._discard_uop(squashed)
        for pending in self._fetch_buffer:
            pending.state = SQUASHED
            self._discard_uop(pending)
        self._fetch_buffer.clear()
        self.iq.drop_squashed()
        self.lsq.drop_squashed()
        self._executing = [u for u in self._executing
                           if u.state is not SQUASHED]

    def _raise_fault(self, uop: DynUop) -> None:
        """Architectural fault at the head of the ROB.

        Everything in flight (including the faulting micro-op) is squashed
        and its shadow state annulled; control transfers to the fault
        handler when one is installed, otherwise the run stops.  Note that
        under WFB the faulting micro-op's state may *already* have been
        promoted — the Meltdown hole the paper describes.
        """
        self._n_faults += 1
        self._fault_events.append(FaultEvent(
            cycle=self.cycle, pc=uop.pc, vaddr=uop.vaddr or 0,
            kind=uop.fault or "unknown"))
        self._last_commit_cycle = self.cycle
        # The faulting micro-op is the ROB head: squash it and everything
        # younger, purging every queue and the rename table with it.
        self._squash_younger_than(uop.seq - 1)
        if self.fault_handler_pc is None:
            self._halted_reason = "fault"
            return
        self._redirect_fetch(self.fault_handler_pc)

    # ------------------------------------------------------------------
    # writeback / branch resolution
    # ------------------------------------------------------------------

    def _writeback_stage(self) -> bool:
        cycle = self.cycle
        executing = self._executing
        # Everything in flight is ISSUED or SQUASHED.
        finishing = [u for u in executing
                     if u.done_cycle <= cycle and u.state is ISSUED]
        if not finishing:
            return False
        finished = len(finishing)
        if finished == len(executing):
            self._executing = []
        else:
            self._executing = [u for u in executing
                               if u.done_cycle > cycle
                               and u.state is ISSUED]
        if finished > 1:
            finishing.sort(key=_BY_SEQ)
        wfb = self._wfb
        for uop in finishing:
            if uop.state is not ISSUED:
                # Squashed mid-batch by an older mispredicting branch:
                # it must neither finish, wake consumers, promote WFB
                # state, nor — crucially — resolve as a branch, which
                # would redirect fetch down its wrong path.
                continue
            uop.state = DONE
            if uop.opcode is _FENCE:
                self._inflight_fences -= 1
            if uop.waiters:
                for waiter in uop.waiters:
                    if waiter.state is DISPATCHED:
                        waiter.pending -= 1
                        if waiter.pending == 0:
                            self.iq.wake(waiter)
                uop.waiters.clear()
            if wfb and not uop.branch_deps:
                self._promote_branch_free(uop)
            if self._mem_dep_spec and uop.is_store \
                    and uop.vaddr is not None:
                self._check_memory_order(uop)
            if uop.is_branch:
                self._resolve_branch(uop)
        return True

    def _resolve_branch(self, uop: DynUop) -> None:
        self._n_branches += 1
        try:
            self._unresolved_branches.remove(uop.seq)
        except ValueError:
            pass
        fallthrough = uop.pc + INSTRUCTION_BYTES
        actual_target = uop.actual_target if uop.actual_taken else fallthrough
        predicted_target = uop.pred_target if uop.pred_taken else fallthrough
        mispredicted = (uop.actual_taken != uop.pred_taken
                        or actual_target != predicted_target)
        uop.mispredicted = mispredicted
        # Train the shared structures (P3: no privilege checks, trainable
        # by wrong-path execution contexts too).
        if uop.inst.is_conditional:
            self.predictor.update(uop.pc, uop.actual_taken, uop.pred_taken)
        if (uop.actual_taken and uop.actual_target is not None
                and not uop.inst.is_return):
            # Returns are predicted by the RSB, never installed in the
            # BTB (a return target is per-invocation, not per-PC).
            self.btb.update(uop.pc, uop.actual_target)
        if mispredicted:
            self._n_mispredicts += 1
            self._squash_younger_than(uop.seq)
            self._redirect_fetch(actual_target,
                                 penalty=self._mispredict_penalty)
        else:
            self._clear_branch_dependence(uop)

    def _check_memory_order(self, store: DynUop) -> None:
        """A store address just resolved under memory-dependence
        speculation: any younger load that already issued against an
        overlapping address consumed stale data.  Squash from the
        violating load onward and refetch it — it will now see the
        store (forwarded, or from memory once committed)."""
        victim = self.lsq.conflicting_load(store)
        if victim is None:
            return
        victim_pc = victim.pc
        self._squash_younger_than(victim.seq - 1)
        self._redirect_fetch(victim_pc, penalty=self._mispredict_penalty)

    def _clear_branch_dependence(self, branch: DynUop) -> None:
        """A correctly predicted branch resolved: younger micro-ops lose
        this dependence; WFB promotes those whose set empties.

        Only WFB tracks branch dependence sets, so the ROB scan is
        skipped entirely under the other policies.
        """
        if not self._wfb:
            return
        for uop in self.rob:
            if uop.seq <= branch.seq or not uop.branch_deps:
                continue
            uop.branch_deps.discard(branch.seq)
            if not uop.branch_deps:
                self._promote_branch_free(uop)

    def _promote_branch_free(self, uop: DynUop) -> None:
        """WFB: ``uop`` has no unresolved older branch left.  Its shadow
        state is promoted, and from now on its accesses are unowned
        (see :meth:`_owner`)."""
        uop.promoted = True
        self.engine.on_branch_resolved(uop.seq)

    # ------------------------------------------------------------------
    # squash machinery
    # ------------------------------------------------------------------

    def _discard_uop(self, uop: DynUop) -> None:
        self._n_squashed += 1
        if self.engine:
            self.engine.on_squash(uop.seq, uop.promoted)
        # Unlink squashed producer/consumer pairs, which would otherwise
        # leave reference cycles for the collector.
        uop.waiters.clear()
        uop.producers.clear()
        if self.observer is not None:
            self.observer("squash", self.cycle, uop)

    def _squash_younger_than(self, seq: int) -> None:
        for squashed in self.rob.squash_younger_than(seq):
            self._discard_uop(squashed)
        self._recount_fences()
        self._unresolved_branches = [s for s in self._unresolved_branches
                                     if s <= seq]
        self._flush_front_end()
        self.iq.drop_squashed()
        self.lsq.drop_squashed()
        self._executing = [u for u in self._executing
                           if u.state is not SQUASHED]
        self._rebuild_rename_table()

    def _recount_fences(self) -> None:
        self._inflight_fences = sum(
            1 for u in self.rob
            if u.opcode is _FENCE
            and (u.state is DISPATCHED or u.state is ISSUED))

    def _flush_front_end(self) -> None:
        for pending in self._fetch_buffer:
            pending.state = SQUASHED
            self._discard_uop(pending)
        self._fetch_buffer.clear()
        self._last_fetch_line = None

    def _rebuild_rename_table(self) -> None:
        self._rename.clear()
        for uop in self.rob:
            if uop.inst.writes_register:
                self._rename[uop.inst.rd] = uop

    def _redirect_fetch(self, target_pc: int, penalty: int = 0) -> None:
        self._fetch_pc = target_pc
        self._fetch_stall_until = max(self._fetch_stall_until,
                                      self.cycle + max(penalty, 1))
        self._fetch_halted = False
        self._last_fetch_line = None

    # ------------------------------------------------------------------
    # issue / execute
    # ------------------------------------------------------------------

    def _oldest_pending_fence(self) -> Optional[int]:
        for uop in self.rob:
            if (uop.opcode is _FENCE
                    and (uop.state is DISPATCHED or uop.state is ISSUED)):
                return uop.seq
        return None

    def _issue_stage(self) -> bool:
        ready = self.iq.ready_uops()
        if not ready:
            return False
        barrier = (self._oldest_pending_fence() if self._inflight_fences
                   else None)
        issue_width = self._issue_width
        try_claim = self.fus.try_claim_index
        block_on_full = self._block_on_full
        rob_entries = self.rob._entries
        observer = self.observer
        issued = 0
        for uop in ready:
            if issued >= issue_width:
                break
            if barrier is not None and uop.seq > barrier:
                continue
            if uop.is_serialising and rob_entries[0] is not uop:
                continue
            if uop.is_load and self.lsq.older_store_blocks(uop):
                continue
            if block_on_full and not self._shadow_admits(uop):
                continue
            if not try_claim(uop.fu_index):
                continue
            self._execute(uop)
            if observer is not None:
                observer("issue", self.cycle, uop)
            issued += 1
        return issued > 0

    def _shadow_admits(self, uop: DynUop) -> bool:
        """BLOCK full-policy: memory micro-ops stall while the d-side
        shadow structures are full — unless oldest (deadlock avoidance).
        The resulting delay is observable: the TSA timing channel."""
        if not (uop.is_load or uop.is_store):
            return True
        if self.rob.head() is uop:
            return True
        return self.engine.can_accept_data_access()

    def _owner(self, uop: DynUop) -> Optional[int]:
        """The owner of ``uop``'s accesses: its seq, so its fills land in
        shadow state — or ``None`` without an engine, or once WFB has
        promoted it (every older branch resolved, or none to begin
        with).  A promoted micro-op is past the shadow: its fills are
        non-speculative and go straight to the committed structures.
        This is the paper's WFB hole — non-branch speculation (faults,
        memory-order violations) squashes state WFB has already
        released."""
        if self.engine is None or uop.promoted:
            return None
        return uop.seq

    def _execute(self, uop: DynUop) -> None:
        self.iq.remove(uop)
        uop.state = ISSUED
        op = uop.opcode
        if op is _ALU:
            self._execute_alu(uop)
        elif op is _LOADIMM:
            uop.result = uop.inst.imm & WORD_MASK
            uop.done_cycle = self.cycle + self._alu_latency
        elif op is _LOAD:
            if not self._execute_load(uop):
                # Replay: a partially overlapping in-flight store means
                # word forwarding would be wrong; return the load to the
                # issue queue until the store drains to memory.
                uop.state = DISPATCHED
                self.iq.add(uop)
                return
        elif op is _STORE:
            self._execute_store(uop)
        elif uop.is_branch:
            self._execute_branch(uop)
        elif op is _CLFLUSH:
            base = uop.source_value(uop.inst.rs1)
            uop.vaddr = (base + uop.inst.imm) & WORD_MASK
            uop.done_cycle = self.cycle + 1
        elif op is _RDTSC:
            uop.result = self.cycle
            uop.done_cycle = self.cycle + 1
        else:  # FENCE, NOP, HALT
            uop.done_cycle = self.cycle + 1
        self._executing.append(uop)

    def _execute_alu(self, uop: DynUop) -> None:
        inst = uop.inst
        lhs = uop.source_value(inst.rs1)
        if inst.rs2 is not None:
            rhs = uop.source_value(inst.rs2)
        else:
            rhs = inst.imm & WORD_MASK
        uop.result = inst.op_fn(lhs, rhs)
        latency = (self._mul_latency if inst.alu_op is _MUL
                   else self._alu_latency)
        uop.done_cycle = self.cycle + latency

    def _execute_load(self, uop: DynUop) -> bool:
        """Execute a load; returns False when it must be replayed."""
        base = uop.source_value(uop.inst.rs1)
        uop.vaddr = (base + uop.inst.imm) & WORD_MASK
        if self.lsq.older_store_blocks(uop):
            # Only detectable now that the address is known: a resolved
            # older store partially overlaps this word.
            return False
        forwarded = self.lsq.forward_from_store(uop)
        if forwarded is not None:
            value, _store = forwarded
            uop.result = value & WORD_MASK
            uop.forwarded = True
            uop.done_cycle = self.cycle + self._store_forward_latency
            self._n_forwards += 1
            return True
        result = self.hierarchy.data_access(
            uop.vaddr, is_write=False, privilege=self.privilege,
            owner=self._owner(uop))
        self._record_data_access(result)
        uop.hit_level = result.hit_level
        uop.fault = result.fault
        uop.paddr = result.paddr
        uop.dwalked = not result.tlb_hit
        if result.fault == "unmapped":
            uop.result = 0
        else:
            # P1: the data is returned speculatively even on a permission
            # fault — this is the Meltdown read.
            uop.result = self.hierarchy.memory.read_word(result.paddr)
        uop.done_cycle = self.cycle + max(result.latency, 1)
        return True

    def _execute_store(self, uop: DynUop) -> None:
        base = uop.source_value(uop.inst.rs1)
        uop.vaddr = (base + uop.inst.imm) & WORD_MASK
        uop.store_value = uop.source_value(uop.inst.rs2)
        result = AccessResult(latency=0)
        translation = self.hierarchy.translate(
            "d", uop.vaddr, self._owner(uop), result)
        uop.dwalked = not result.tlb_hit
        if translation is None:
            uop.fault = "unmapped"
        else:
            uop.paddr = translation.physical(uop.vaddr)
            if not translation.permissions.allows(
                    write=True, execute=False, privilege=self.privilege):
                uop.fault = "permission"
        uop.done_cycle = self.cycle + max(result.latency, 1)

    def _execute_branch(self, uop: DynUop) -> None:
        op = uop.opcode
        if op is _BRANCH:
            inst = uop.inst
            uop.actual_taken = inst.op_fn(
                uop.source_value(inst.rs1), uop.source_value(inst.rs2))
            uop.actual_target = self.program.pc_of(inst.target)
        elif op is _JMP:
            uop.actual_taken = True
            uop.actual_target = self.program.pc_of(uop.inst.target)
        elif op is _CALL:
            uop.actual_taken = True
            uop.actual_target = self.program.pc_of(uop.inst.target)
            uop.result = (uop.pc + INSTRUCTION_BYTES) & WORD_MASK  # link
        else:  # JMPI / RET: indirect through rs1
            uop.actual_taken = True
            uop.actual_target = uop.source_value(uop.inst.rs1) & WORD_MASK
        uop.done_cycle = self.cycle + 1

    def _record_data_access(self, result: AccessResult) -> None:
        self._n_d_access += 1
        if result.hit_level == "shadow":
            self._n_d_shadow_hits += 1
        elif result.hit_level == "L1":
            self._n_d_l1_hits += 1
        else:
            self._n_d_miss += 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch_stage(self) -> bool:
        fetch_buffer = self._fetch_buffer
        cycle = self.cycle
        front_end_depth = self._front_end_depth
        rob_entries, rob_capacity = self.rob._entries, self.rob.capacity
        iq_entries, iq_capacity = self.iq._entries, self.iq.capacity
        observer = self.observer
        dispatched = 0
        while fetch_buffer and dispatched < self._issue_width:
            uop = fetch_buffer[0]
            if uop.fetch_cycle + front_end_depth > cycle:
                break
            if (len(rob_entries) >= rob_capacity
                    or len(iq_entries) >= iq_capacity):
                break
            if uop.is_load and self.lsq.ldq_full:
                break
            if uop.is_store and self.lsq.stq_full:
                break
            fetch_buffer.popleft()
            self._dispatch_uop(uop)
            if observer is not None:
                observer("dispatch", cycle, uop)
            dispatched += 1
        return dispatched > 0

    def _dispatch_uop(self, uop: DynUop) -> None:
        uop.state = DISPATCHED
        inst = uop.inst
        rename = self._rename
        for reg in inst.sources:
            producer = rename.get(reg)
            if producer is None:
                uop.operands[reg] = self.regfile[reg]
            elif ((producer.state is DONE or producer.state is COMMITTED)
                    and producer.result is not None):
                uop.operands[reg] = producer.result
            else:
                uop.producers[reg] = producer
                uop.pending += 1
                producer.waiters.append(uop)
        self.rob._entries.append(uop)   # dispatch checked capacity
        if uop.is_branch:
            self._unresolved_branches.append(uop.seq)
        if uop.opcode is _FENCE:
            self._inflight_fences += 1
        if inst.writes_register:
            rename[inst.rd] = uop
        self.iq.add(uop)
        if uop.is_load:
            self.lsq.add_load(uop)
        elif uop.is_store:
            self.lsq.add_store(uop)
        if self._wfb:
            deps = set(self._unresolved_branches)
            deps.discard(uop.seq)
            uop.branch_deps = deps
            if not deps:
                self._promote_branch_free(uop)

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch_stage(self) -> bool:
        instructions = self.program.instructions
        code_base = self.program.code_base
        fetch_buffer = self._fetch_buffer
        iline_mask = self._iline_mask
        cycle = self.cycle
        observer = self.observer
        fetched = 0
        while (fetched < self._fetch_width
               and len(fetch_buffer) < _FETCH_BUFFER_CAP):
            pc = self._fetch_pc
            offset = pc - code_base
            index = offset // INSTRUCTION_BYTES
            if (offset < 0 or offset % INSTRUCTION_BYTES
                    or index >= len(instructions)):
                break
            inst = instructions[index]
            uop = DynUop(self._next_seq, inst, pc, index, cycle)
            self._next_seq += 1
            # Only the first micro-op of a line reaches the i-side.
            line = pc & iline_mask
            stall = (line != self._last_fetch_line
                     and self._fetch_instruction_line(uop, line))
            if observer is not None:
                observer("fetch", cycle, uop)
            fetch_buffer.append(uop)
            fetched += 1
            if inst.opcode is _HALT:
                # HALT serialises the front end: nothing is fetched past
                # it until a squash or fault redirects fetch elsewhere.
                self._fetch_halted = True
                break
            if inst.is_control_flow:
                self._predict_and_advance(uop)
                if stall or uop.pred_taken:
                    break
            else:
                self._fetch_pc = pc + INSTRUCTION_BYTES
                if stall:
                    break
        return fetched > 0

    def _fetch_instruction_line(self, uop: DynUop, line: int) -> bool:
        """Access the i-side hierarchy for ``line``, which holds
        ``uop.pc`` and differs from the last line fetched.

        Returns True when the access missed L1/shadow, in which case fetch
        stalls for the remaining latency (the micro-op itself is kept and
        delivered when the line arrives).
        """
        self._last_fetch_line = line
        result = self.hierarchy.fetch_access(
            uop.pc, privilege=self.privilege, owner=self._owner(uop))
        uop.ifetch_level = result.hit_level
        uop.ifetch_line = line
        uop.iwalked = not result.tlb_hit
        self._n_i_access += 1
        if result.hit_level == "shadow":
            self._n_i_shadow_hits += 1
        elif result.hit_level == "L1":
            self._n_i_l1_hits += 1
        else:
            self._n_i_miss += 1
        hit_latency = self._l1i_hit_latency
        if result.latency > hit_latency:
            extra = result.latency - hit_latency
            self._fetch_stall_until = self.cycle + extra
            uop.fetch_cycle = self.cycle + extra
            return True
        return False

    def _predict_and_advance(self, uop: DynUop) -> None:
        """Predict a control-flow micro-op and steer fetch after it."""
        inst = uop.inst
        op = inst.opcode
        if op is _BRANCH:
            uop.pred_taken = self.predictor.predict(uop.pc)
            uop.pred_target = (self.program.pc_of(inst.target)
                               if uop.pred_taken else None)
            # A fetch-time BHB sees the *predicted* direction; trained
            # branches make this the resolved direction too.
            self.btb.note_branch(uop.pred_taken)
        elif op is _JMP:
            uop.pred_taken = True
            uop.pred_target = self.program.pc_of(inst.target)
        elif op is _CALL:
            # Direct target: never mispredicts.  The RSB learns the
            # fall-through (return) address at fetch — including on the
            # wrong path, which is the ret2spec pollution surface.
            uop.pred_taken = True
            uop.pred_target = self.program.pc_of(inst.target)
            self.rsb.push(uop.pc + INSTRUCTION_BYTES)
        elif op is _RET:
            predicted = self.rsb.pop()
            if predicted:
                uop.pred_taken = True
                uop.pred_target = predicted
            else:
                # Empty RSB: no prediction, fall through and fix up at
                # resolution (the ret2spec underflow misprediction).
                uop.pred_taken = False
                uop.pred_target = None
        elif op is _JMPI:
            target = self.btb.predict_target(uop.pc)
            if target is not None:
                uop.pred_taken = True
                uop.pred_target = target
            else:
                # No BTB entry: fall through and fix up at resolution.
                uop.pred_taken = False
                uop.pred_target = None
        if uop.pred_taken and uop.pred_target is not None:
            self._fetch_pc = uop.pred_target
            self._last_fetch_line = None
        else:
            self._fetch_pc = uop.pc + INSTRUCTION_BYTES
