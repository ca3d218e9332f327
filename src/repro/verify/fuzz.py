"""Seeded ISA program fuzzer: random-but-well-formed test programs.

``generate_fuzz_program(profile, seed)`` builds a deterministic,
guaranteed-terminating program on top of
:class:`~repro.isa.assembler.ProgramBuilder`, together with the memory
image it expects — the fuzz analogue of the workload generator's
:class:`~repro.workloads.generator.WorkloadProgram`.

Programs mix every architecturally interesting construct:

* ALU chains over a pool of data registers (all eight operations,
  register and immediate forms, 64-bit wraparound values);
* bounded loads/stores/clflushes into a private data region (base
  register + displacement, both li-computed and immediate-offset
  forms), so every address is statically known-mapped;
* forward skip-branches over real data values and counted backward
  loops (a dedicated counter register against the dedicated zero
  register), so control flow always terminates;
* computed ``li``+``jmpi`` no-op hops (the indirect-branch/BTB path);
* ``rdtsc`` into a write-only sink register and ``fence`` barriers;
* optionally, a supervisor-page load that must fault at commit and
  divert to a handler (the Meltdown-shaped architectural path).

Register convention (the well-formedness contract the oracle's taint
tracking enforces): ``r0`` is a materialised zero, ``r1`` the data-region
base, ``r2`` address/jmpi scratch, ``r3``–``r11`` the data pool,
``r12``/``r13`` loop counters, ``r14`` the rdtsc sink (never read),
``r15`` the fault-handler marker register.
"""

from __future__ import annotations

import dataclasses
import random
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError
from repro.isa.assembler import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.program import Program

# Bump when generated programs (or their memory image) change for a
# given (profile, seed): verify-job cache keys carry this version so
# stale differential verdicts can never be replayed from the cache.
# v2: call/ret construct (call_fraction) joined the op draw.
FUZZ_FORMAT_VERSION = 2

_ALU_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr")
_BRANCH_CONDS = ("eq", "ne", "lt", "ge")

# -- register convention ----------------------------------------------------
R_ZERO = 0
R_DATA_BASE = 1
R_SCRATCH = 2
DATA_REGS = tuple(range(3, 12))
LOOP_REGS = (12, 13)
R_TSC_SINK = 14
R_FAULT_MARK = 15

FAULT_MARKER = 0xFA17


@dataclass(frozen=True)
class FuzzProfile:
    """Shape parameters for one family of fuzzed programs.

    Fractions weight the per-op draw (the remainder becomes plain ALU
    work); structural fields bound program size and loop depth so every
    generated program terminates by construction.
    """

    name: str = "mixed"
    ops: int = 120                  # straight-line op budget
    loops: int = 2                  # counted loops (max nesting 2)
    loop_body_ops: int = 6
    max_loop_iterations: int = 6
    load_fraction: float = 0.18
    store_fraction: float = 0.14
    branch_fraction: float = 0.12
    clflush_fraction: float = 0.04
    rdtsc_fraction: float = 0.04
    fence_fraction: float = 0.03
    jmpi_fraction: float = 0.04
    call_fraction: float = 0.0
    fault_epilogue_probability: float = 0.5
    data_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise ConfigError("fuzz profile needs ops >= 1")
        if self.data_bytes < 64:
            raise ConfigError("fuzz profile needs data_bytes >= 64")
        if self.max_loop_iterations < 1:
            raise ConfigError("fuzz profile needs max_loop_iterations >= 1")
        if self.loops < 0 or self.loops > len(LOOP_REGS):
            raise ConfigError(
                f"fuzz profile supports 0..{len(LOOP_REGS)} loops")
        fractions = (self.load_fraction + self.store_fraction
                     + self.branch_fraction + self.clflush_fraction
                     + self.rdtsc_fraction + self.fence_fraction
                     + self.jmpi_fraction + self.call_fraction)
        if fractions > 1.0:
            raise ConfigError("fuzz profile op fractions exceed 1.0")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FuzzProfile":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown fuzz profile field(s) {sorted(unknown)}")
        return cls(**payload)


FUZZ_PROFILES: Dict[str, FuzzProfile] = {
    "mixed": FuzzProfile(name="mixed"),
    "alu": FuzzProfile(
        name="alu", ops=160, loops=1, load_fraction=0.0,
        store_fraction=0.0, branch_fraction=0.05, clflush_fraction=0.0,
        rdtsc_fraction=0.02, fence_fraction=0.0, jmpi_fraction=0.0,
        fault_epilogue_probability=0.0),
    "memory": FuzzProfile(
        name="memory", ops=140, loops=1, load_fraction=0.35,
        store_fraction=0.30, branch_fraction=0.05,
        clflush_fraction=0.08, rdtsc_fraction=0.0, fence_fraction=0.02,
        jmpi_fraction=0.0, fault_epilogue_probability=0.25),
    "control": FuzzProfile(
        name="control", ops=100, loops=2, loop_body_ops=8,
        load_fraction=0.10, store_fraction=0.05, branch_fraction=0.30,
        clflush_fraction=0.0, rdtsc_fraction=0.02, fence_fraction=0.02,
        jmpi_fraction=0.12, fault_epilogue_probability=0.25),
    "faulty": FuzzProfile(
        name="faulty", ops=80, loops=1, load_fraction=0.20,
        store_fraction=0.15, branch_fraction=0.10,
        fault_epilogue_probability=1.0),
    "call-ret": FuzzProfile(
        name="call-ret", ops=110, loops=1, loop_body_ops=6,
        load_fraction=0.08, store_fraction=0.05, branch_fraction=0.12,
        clflush_fraction=0.0, rdtsc_fraction=0.02, fence_fraction=0.02,
        jmpi_fraction=0.06, call_fraction=0.25,
        fault_epilogue_probability=0.25),
}


def fuzz_profile(name: str) -> FuzzProfile:
    """Look up a registered profile by name."""
    try:
        return FUZZ_PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown fuzz profile {name!r}; "
            f"known: {', '.join(sorted(FUZZ_PROFILES))}")


@dataclass
class FuzzProgram:
    """One generated test case: program + the memory image it expects."""

    profile: FuzzProfile
    seed: int
    program: Program
    data_base: int
    data_bytes: int
    kernel_base: int
    # The initial value of each word at :meth:`compare_addresses`: the
    # data region's words in order, then the planted supervisor word.
    # Packed, since the verify harness keeps recent cases alive.
    initial_words: array = field(default_factory=lambda: array("Q"))
    fault_handler_label: Optional[str] = None

    @property
    def fault_handler_pc(self) -> Optional[int]:
        if self.fault_handler_label is None:
            return None
        return self.program.label_pc(self.fault_handler_label)

    def apply_memory_image(self, machine) -> None:
        """Map the regions and install the initial data words.

        ``machine`` is anything with the Machine setup surface — a real
        :class:`~repro.machine.Machine` or a
        :class:`~repro.verify.oracle.ReferenceOracle`.
        """
        machine.map_user_range(self.data_base, self.data_bytes)
        machine.map_kernel_range(self.kernel_base, 4096)
        machine.write_block(self.data_base, self.initial_words[:-1])
        machine.write_block(self.kernel_base, self.initial_words[-1:])

    def read_image(self, target) -> array:
        """The words at :meth:`compare_addresses` in ``target`` now,
        laid out like :attr:`initial_words`."""
        image = array("Q", target.read_block(
            self.data_base, len(self.initial_words) - 1))
        image.extend(target.read_block(self.kernel_base, 1))
        return image

    def compare_addresses(self) -> List[int]:
        """Word addresses the differential harness checks after a run."""
        addrs = list(range(self.data_base,
                           self.data_base + self.data_bytes, 8))
        addrs.append(self.kernel_base)
        return addrs


class _FuzzEmitter:
    """Stateful op emitter shared by straight-line and loop bodies."""

    def __init__(self, builder: ProgramBuilder, profile: FuzzProfile,
                 rng: random.Random, data_base: int,
                 code_base: int) -> None:
        self._b = builder
        self._profile = profile
        self._rng = rng
        self._data_base = data_base
        self._code_base = code_base
        self._label_counter = 0

    # -- helpers -----------------------------------------------------------

    def _data_reg(self) -> int:
        return self._rng.choice(DATA_REGS)

    def _offset(self) -> int:
        return self._rng.randrange(0, self._profile.data_bytes - 8)

    def _fresh_label(self, prefix: str) -> str:
        self._label_counter += 1
        return f"{prefix}{self._label_counter}"

    # -- op emitters --------------------------------------------------------

    def emit_op(self) -> None:
        p = self._profile
        draw = self._rng.random()
        edge = p.load_fraction
        if draw < edge:
            return self._emit_load()
        edge += p.store_fraction
        if draw < edge:
            return self._emit_store()
        edge += p.branch_fraction
        if draw < edge:
            return self._emit_branch()
        edge += p.clflush_fraction
        if draw < edge:
            return self._emit_clflush()
        edge += p.rdtsc_fraction
        if draw < edge:
            return self._emit_rdtsc()
        edge += p.fence_fraction
        if draw < edge:
            self._b.fence()
            return None
        edge += p.jmpi_fraction
        if draw < edge:
            return self._emit_jmpi_hop()
        edge += p.call_fraction
        if draw < edge:
            return self._emit_call_ret()
        return self._emit_alu()

    def _emit_alu(self) -> None:
        op = self._rng.choice(_ALU_OPS)
        rd = self._data_reg()
        rs1 = self._data_reg()
        if self._rng.random() < 0.5:
            self._b.alu(op, rd, rs1, self._data_reg())
        else:
            imm = self._rng.randrange(-(1 << 16), 1 << 16)
            self._b.alu(op, rd, rs1, imm=imm)

    def _emit_load(self) -> None:
        rd = self._data_reg()
        offset = self._offset()
        if self._rng.random() < 0.5:
            # li-computed absolute address, zero displacement
            self._b.li(R_SCRATCH, self._data_base + offset)
            self._b.load(rd, R_SCRATCH, 0)
        else:
            # base register + immediate displacement
            self._b.load(rd, R_DATA_BASE, offset)

    def _emit_store(self) -> None:
        data = self._data_reg()
        offset = self._offset()
        if self._rng.random() < 0.5:
            self._b.li(R_SCRATCH, self._data_base + offset)
            self._b.store(R_SCRATCH, data, 0)
        else:
            self._b.store(R_DATA_BASE, data, offset)

    def _emit_branch(self) -> None:
        """A forward skip-branch over 1–3 simple ops."""
        label = self._fresh_label("skip")
        cond = self._rng.choice(_BRANCH_CONDS)
        lhs = self._data_reg()
        rhs = R_ZERO if self._rng.random() < 0.3 else self._data_reg()
        self._b.branch(cond, lhs, rhs, label)
        for _ in range(self._rng.randrange(1, 4)):
            self._emit_alu()
        self._b.label(label)

    def _emit_clflush(self) -> None:
        self._b.clflush(R_DATA_BASE, self._offset())

    def _emit_rdtsc(self) -> None:
        self._b.rdtsc(R_TSC_SINK)
        if self._rng.random() < 0.5:
            # Occasionally overwrite the sink: exercises taint clearing.
            self._b.li(R_TSC_SINK, self._rng.randrange(0, 1 << 16))

    def _emit_call_ret(self) -> None:
        """A balanced inline call: ``call`` a forward function of 1–3
        ALU ops that returns through its link register (the RSB push/pop
        pair), with the mainline jumping over the function body.  The
        body never emits nested constructs, so the link in ``R_SCRATCH``
        survives until the ``ret``."""
        fn = self._fresh_label("fn")
        done = self._fresh_label("fnend")
        self._b.call(R_SCRATCH, fn)
        self._b.jmp(done)
        self._b.label(fn)
        for _ in range(self._rng.randrange(1, 4)):
            self._emit_alu()
        self._b.ret(R_SCRATCH)
        self._b.label(done)

    def _emit_jmpi_hop(self) -> None:
        """``li`` the pc of the next-next instruction, then ``jmpi`` to
        it — a statically known indirect jump (no BTB entry on the first
        encounter, so the fall-through misprediction path is exercised
        too)."""
        target_index = self._b.here() + 2
        target_pc = self._code_base + target_index * INSTRUCTION_BYTES
        self._b.li(R_SCRATCH, target_pc)
        self._b.jmpi(R_SCRATCH)


def generate_fuzz_program(profile: FuzzProfile, seed: int,
                          code_base: int = 0x1000,
                          data_base: int = 0x20000,
                          kernel_base: int = 0x80000) -> FuzzProgram:
    """Generate the deterministic test case for ``(profile, seed)``."""
    # Seeded with a *string*: Random() hashes str seeds with SHA-512,
    # which is stable across processes and interpreter restarts (a
    # tuple seed would go through hash() and break under PYTHONHASHSEED
    # randomization — executor workers must regenerate identically).
    seed_key = (f"v{FUZZ_FORMAT_VERSION}:{sorted(profile.to_dict().items())}"
                f":{seed}:{code_base:#x}:{data_base:#x}")
    rng = random.Random(seed_key)
    b = ProgramBuilder(code_base=code_base)
    emitter = _FuzzEmitter(b, profile, rng, data_base, code_base)

    # ---- architectural setup: zero register, base pointer, data pool.
    b.li(R_ZERO, 0)
    b.li(R_DATA_BASE, data_base)
    for reg in DATA_REGS:
        b.li(reg, rng.randrange(0, 1 << 64))

    # ---- straight-line sections interleaved with counted loops.
    loops = min(profile.loops, len(LOOP_REGS))
    sections = loops + 1
    ops_per_section = max(1, profile.ops // sections)
    for section in range(sections):
        for _ in range(ops_per_section):
            emitter.emit_op()
        if section < loops:
            counter = LOOP_REGS[section]
            iterations = rng.randrange(1, profile.max_loop_iterations + 1)
            head = f"loop{section}"
            b.li(counter, iterations)
            b.label(head)
            for _ in range(profile.loop_body_ops):
                emitter.emit_op()
            b.alu("sub", counter, counter, imm=1)
            b.branch("ne", counter, R_ZERO, head)

    # ---- optional faulting epilogue: a supervisor-page load that must
    # fault at commit, squash everything younger, and divert to the
    # handler.  The wrong-path destination write must never commit.
    fault_handler_label = None
    if rng.random() < profile.fault_epilogue_probability:
        fault_handler_label = "fault_handler"
        victim = emitter._data_reg()
        b.li(R_SCRATCH, kernel_base)
        b.load(victim, R_SCRATCH, 0)
        b.alu("add", victim, victim, imm=1)   # dependent wrong-path work
        b.halt()
        b.label(fault_handler_label)
        b.li(R_FAULT_MARK, FAULT_MARKER)
        b.store(R_DATA_BASE, R_FAULT_MARK, 0)
        b.halt()
    else:
        b.halt()

    program = b.build()

    # ---- initial data image: every word of the region, plus a planted
    # supervisor word the faulting load targets.
    initial_words = array("Q", [rng.randrange(0, 1 << 64)
                                for _ in range(0, profile.data_bytes, 8)])
    initial_words.append(rng.randrange(0, 1 << 64))

    return FuzzProgram(
        profile=profile,
        seed=seed,
        program=program,
        data_base=data_base,
        data_bytes=profile.data_bytes,
        kernel_base=kernel_base,
        initial_words=initial_words,
        fault_handler_label=fault_handler_label,
    )
