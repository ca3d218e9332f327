"""Synthetic workload program generator.

Each workload is a self-contained program shaped by its
:class:`~repro.workloads.profiles.WorkloadProfile`:

* A **loop head** decrements an iteration counter, advances a 64-bit LCG
  in registers, and indirect-jumps into one of N power-of-two-sized
  **code blocks** selected by LCG bits.  The dispatcher's ``jmpi``
  mispredicts whenever the next block differs from the BTB's last target,
  creating realistic wrong-path fetch (speculative i-state).
* Each block's body is a seeded mix of loads, stores, conditional
  branches and ALU ops per the profile's fractions:

  - *strided/random loads* compute an address from fresh LCG bits masked
    to the working set;
  - *pointer-chase loads* follow a pre-populated random cycle through the
    working set (serial cache/TLB misses, mcf-style);
  - *branches* are either LCG-biased (probability ``entropy/2`` taken,
    unlearnable by the bimodal predictor beyond the bias) or dependent on
    the last loaded value (long speculation windows when the load
    misses).

The generator is fully deterministic: ``(profile, code_base, data_base)``
always yields the same program and chase table.  Its draws come from
:class:`~repro.workloads.pcg64.PCG64`, numpy's ``default_rng(seed)``
stream reproduced in pure Python, so generating needs no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ConfigError
from repro.isa.assembler import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES, AluOp
from repro.isa.program import Program
from repro.workloads.pcg64 import PCG64
from repro.workloads.profiles import WorkloadProfile

# LCG multiplier/increment (Knuth's MMIX constants).
_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407

_BLOCK_BYTES = 2048
_BLOCK_INSTRUCTIONS = _BLOCK_BYTES // INSTRUCTION_BYTES
_MAX_CHASE_ENTRIES = 2048
_HOT_REGION_BYTES = 8 * 1024    # hot fraction of loads stays in-cache
_HOT_LOAD_FRACTION = 0.95
_HOT_BLOCKS = 8                 # hot-chain blocks (16 KB, fits the L1I)
# Taken-probability scale: p(taken) = entropy * _BRANCH_BIAS_SCALE, keeping
# per-instruction misprediction rates in the realistic sub-1% range.
_BRANCH_BIAS_SCALE = 0.08
_LOOP_COUNTER_INIT = 1 << 40   # effectively infinite; budget stops the run

# Register allocation (see module docstring of the generator):
_R_ZERO = 0          # never written
_R_LCG = 1
_R_SCRATCH = 2
_R_DATA_BASE = 3
_R_CHASE = 4
_R_THRESHOLD = 5
_R_COUNTER = 6
_R_DISPATCH = 7
_R_BLOCK_BASE = 12
_BODY_REGS = (8, 9, 10, 11, 13, 14, 15)
# Register-register ALU ops a block body draws from, in draw order.
_BODY_ALU_OPS = (AluOp.ADD, AluOp.XOR, AluOp.SUB, AluOp.OR)


def _round_up_pow2(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


@dataclass
class WorkloadProgram:
    """A generated workload: program + the memory image it expects."""

    profile: WorkloadProfile
    program: Program
    data_base: int
    data_bytes: int
    chase_writes: List[Tuple[int, int]] = field(default_factory=list)
    num_blocks: int = 0

    def apply_memory_image(self, machine) -> None:
        """Map the data region and install the pointer-chase cycle."""
        machine.map_user_range(self.data_base, self.data_bytes)
        machine.write_words(self.chase_writes)


class _BlockBodyEmitter:
    """Emits one block's body instructions from the profile's mix."""

    def __init__(self, builder: ProgramBuilder, profile: WorkloadProfile,
                 rng: PCG64, data_base: int, ws_mask: int,
                 label_prefix: str) -> None:
        self._b = builder
        self._profile = profile
        self._rng = rng
        self._data_base = data_base
        self._ws_mask = ws_mask
        self._label_prefix = label_prefix
        self._reg_cursor = 0
        self._last_load_reg = _BODY_REGS[0]
        self._skip_counter = 0

    def _next_reg(self) -> int:
        reg = _BODY_REGS[self._reg_cursor % len(_BODY_REGS)]
        self._reg_cursor += 1
        return reg

    def emit_op(self) -> int:
        """Emit one operation; returns the number of instructions used."""
        profile = self._profile
        draw = self._rng.random()
        load_fraction = max(
            0.30, 1.0 - profile.branch_fraction - profile.store_fraction
            - 0.25)
        if draw < profile.branch_fraction:
            return self._emit_branch()
        if draw < profile.branch_fraction + profile.store_fraction:
            return self._emit_store()
        if draw < (profile.branch_fraction + profile.store_fraction
                   + load_fraction):
            return self._emit_load()
        return self._emit_alu()

    def _emit_alu(self) -> int:
        rd = self._next_reg()
        rs = self._next_reg()
        self._b.alu(self._rng.choice(_BODY_ALU_OPS), rd, rd, rs)
        return 1

    def _address_mask(self) -> int:
        """Hot loads reuse a small in-cache region; cold loads sweep the
        full working set — locality real programs exhibit."""
        hot_mask = min(_HOT_REGION_BYTES, self._ws_mask + 1) - 1
        if self._rng.random() < _HOT_LOAD_FRACTION:
            return hot_mask
        return self._ws_mask

    def _emit_load(self) -> int:
        if self._rng.random() < self._profile.pointer_chase_fraction:
            # Serial pointer chase: the value *is* the next address.
            # Chase values do not feed branches: real branch conditions
            # come overwhelmingly from hot data, and wiring miss-latency
            # values into conditions would make every wrong path
            # hundreds of cycles deep.
            self._b.load(_R_CHASE, _R_CHASE, 0)
            return 1
        shift = self._rng.integers(5, 24)
        rd = self._next_reg()
        self._b.alu(AluOp.SHR, _R_SCRATCH, _R_LCG, imm=shift)
        self._b.alu(AluOp.AND, _R_SCRATCH, _R_SCRATCH,
                    imm=self._address_mask() & ~7)
        self._b.add(rd, _R_DATA_BASE, _R_SCRATCH)
        self._b.load(rd, rd, 0)
        self._last_load_reg = rd
        return 4

    def _emit_store(self) -> int:
        shift = self._rng.integers(5, 24)
        addr_reg = self._next_reg()
        data_reg = self._next_reg()
        self._b.alu(AluOp.SHR, _R_SCRATCH, _R_LCG, imm=shift)
        # Stores stay off the chase slots: slots sit at multiples of the
        # chase stride (a power of two >= 16), so a 16-aligned base plus
        # a fixed +8 displacement can never land on one.  Without this,
        # a store eventually overwrites a chase pointer and the chase
        # load walks off the map — which capped every chasing workload
        # at a few thousand instructions.
        self._b.alu(AluOp.AND, _R_SCRATCH, _R_SCRATCH,
                    imm=self._address_mask() & ~15)
        self._b.add(addr_reg, _R_DATA_BASE, _R_SCRATCH)
        self._b.store(addr_reg, data_reg, 8)
        return 4

    def _emit_branch(self) -> int:
        skip_label = f"{self._label_prefix}_s{self._skip_counter}"
        self._skip_counter += 1
        if self._rng.random() < 0.5:
            # LCG-biased branch: taken with controlled probability.
            shift = self._rng.integers(0, 48)
            self._b.alu(AluOp.SHR, _R_SCRATCH, _R_LCG, imm=shift)
            self._b.alu(AluOp.AND, _R_SCRATCH, _R_SCRATCH, imm=255)
            cost = 4
        else:
            # Load-dependent branch: resolves only after the feeding load
            # (speculation window), with the value mixed against LCG bits
            # so the taken probability stays at the profile's bias even
            # when the loaded data is degenerate (e.g. zero-filled).
            shift = self._rng.integers(3, 40)
            self._b.alu(AluOp.XOR, _R_SCRATCH, self._last_load_reg, _R_LCG)
            self._b.alu(AluOp.SHR, _R_SCRATCH, _R_SCRATCH, imm=shift)
            self._b.alu(AluOp.AND, _R_SCRATCH, _R_SCRATCH, imm=255)
            cost = 5
        self._b.branch("lt", _R_SCRATCH, _R_THRESHOLD, skip_label)
        filler = self._next_reg()
        self._b.alu(AluOp.XOR, filler, filler, imm=1)
        self._b.label(skip_label)
        return cost


# Generation is deterministic in (profile, code_base, data_base), so the
# result is shared across calls.  Profiles are frozen dataclasses (a few
# dozen exist), so the cache stays small and the returned WorkloadProgram
# keeps a stable identity — which also lets per-program lowering caches
# (the fast backend's) hit across runs.  Treat cached programs as
# immutable.
_PROGRAM_CACHE: dict = {}


def generate_program(profile: WorkloadProfile,
                     code_base: int = 0x10_000,
                     data_base: int = 0x200_0000) -> WorkloadProgram:
    """Generate (or fetch the memoized) program for one profile."""
    key = (profile, code_base, data_base)
    cached = _PROGRAM_CACHE.get(key)
    if cached is None:
        cached = _generate_program(profile, code_base, data_base)
        _PROGRAM_CACHE[key] = cached
    return cached


def _generate_program(profile: WorkloadProfile,
                      code_base: int,
                      data_base: int) -> WorkloadProgram:
    """Generate the synthetic program for one profile."""
    if code_base % INSTRUCTION_BYTES:
        raise ConfigError("code_base must be instruction-aligned")
    rng = PCG64(profile.seed)
    ws_bytes = _round_up_pow2(profile.working_set_kb * 1024)
    ws_mask = ws_bytes - 1
    num_blocks = max(4, profile.code_kb * 1024 // _BLOCK_BYTES)
    num_hot = min(_HOT_BLOCKS, num_blocks - 2)
    cold_pow2 = 1
    while cold_pow2 * 2 <= num_blocks - num_hot:
        cold_pow2 *= 2
    block_shift = _BLOCK_BYTES.bit_length() - 1
    threshold = max(1, int(256 * profile.branch_entropy
                           * _BRANCH_BIAS_SCALE))

    b = ProgramBuilder(code_base=code_base)
    # ---- init
    b.li(_R_LCG, rng.integers(1, 1 << 62))
    b.li(_R_DATA_BASE, data_base)
    b.li(_R_CHASE, data_base)        # chase cycle starts at the base
    b.li(_R_THRESHOLD, threshold)
    b.li(_R_COUNTER, _LOOP_COUNTER_INIT)
    b.li(_R_BLOCK_BASE, 0)           # patched after layout (see below)
    block_base_fixup = b.here() - 1
    for reg in _BODY_REGS:
        b.li(reg, rng.integers(0, 1 << 32))
    b.jmp("loop_head")

    # ---- loop head: counter + LCG advance, then into the hot chain.
    b.label("loop_head")
    b.alu(AluOp.SUB, _R_COUNTER, _R_COUNTER, imm=1)
    b.branch("eq", _R_COUNTER, _R_ZERO, "done")
    b.alu(AluOp.MUL, _R_LCG, _R_LCG, imm=_LCG_MUL)
    b.alu(AluOp.ADD, _R_LCG, _R_LCG, imm=_LCG_ADD)
    b.jmp("hot0")
    b.label("done")
    b.halt()

    # ---- cold-excursion dispatcher: each iteration ends with an
    # indirect jump into one LCG-selected cold block (i-cache pressure
    # plus a realistic, occasionally mispredicting indirect branch).
    b.label("dispatch")
    b.alu(AluOp.SHR, _R_SCRATCH, _R_LCG, imm=29)
    b.alu(AluOp.AND, _R_SCRATCH, _R_SCRATCH, imm=cold_pow2 - 1)
    b.alu(AluOp.SHL, _R_SCRATCH, _R_SCRATCH, imm=block_shift)
    b.add(_R_DISPATCH, _R_BLOCK_BASE, _R_SCRATCH)
    b.jmpi(_R_DISPATCH)

    # ---- hot chain: statically chained blocks that fit in the L1I,
    # executed every iteration (the program's "inner loop" code).
    while (b.here() * INSTRUCTION_BYTES) % _BLOCK_BYTES:
        b.nop()
    for block in range(num_hot):
        block_start = b.here()
        b.label(f"hot{block}")
        emitter = _BlockBodyEmitter(b, profile, rng, data_base, ws_mask,
                                    label_prefix=f"h{block}")
        used = 0
        # Leave room for the closing jmp plus the longest op (4 instr).
        while used < _BLOCK_INSTRUCTIONS - 5:
            used += emitter.emit_op()
        if block + 1 < num_hot:
            b.jmp(f"hot{block + 1}")
        else:
            b.jmp("dispatch")
        while b.here() - block_start < _BLOCK_INSTRUCTIONS:
            b.nop()

    # ---- cold blocks: LCG-selected, one per iteration.
    while (b.here() * INSTRUCTION_BYTES) % _BLOCK_BYTES:
        b.nop()
    first_cold_index = b.here()
    for block in range(cold_pow2):
        block_start = b.here()
        emitter = _BlockBodyEmitter(b, profile, rng, data_base, ws_mask,
                                    label_prefix=f"c{block}")
        used = 0
        while used < _BLOCK_INSTRUCTIONS - 5:
            used += emitter.emit_op()
        b.jmp("loop_head")
        while b.here() - block_start < _BLOCK_INSTRUCTIONS:
            b.nop()

    program = b.build()

    # Patch the cold-block-base constant now that the layout is known.
    block_base_pc = program.pc_of(first_cold_index)
    from repro.isa.instructions import Instruction, Opcode

    instructions = list(program.instructions)
    instructions[block_base_fixup] = Instruction(
        Opcode.LOADIMM, rd=_R_BLOCK_BASE, imm=block_base_pc)
    program = Program(instructions, code_base=code_base,
                      labels=dict(program.labels))

    chase_writes = _build_chase_cycle(rng, data_base, ws_bytes)
    return WorkloadProgram(
        profile=profile,
        program=program,
        data_base=data_base,
        data_bytes=ws_bytes,
        chase_writes=chase_writes,
        num_blocks=num_blocks,
    )


def _build_chase_cycle(rng: PCG64, data_base: int,
                       ws_bytes: int) -> List[Tuple[int, int]]:
    """A random single-cycle permutation of chase slots across the
    working set; slot 0 (the chase entry point) is included.

    Slots are kept at least 16 bytes apart so the store emitter's
    16-aligned+8 addresses can never overwrite a chase pointer."""
    entries = min(_MAX_CHASE_ENTRIES, ws_bytes // 16)
    stride = ws_bytes // entries
    slots = [data_base + i * stride for i in range(entries)]
    order = rng.permutation(entries)
    # Rotate so the cycle starts at slot 0 (register init points there).
    zero_pos = order.index(0)
    order = order[zero_pos:] + order[:zero_pos]
    writes = []
    for position, slot_index in enumerate(order):
        next_index = order[(position + 1) % entries]
        writes.append((slots[slot_index], slots[next_index]))
    return writes
