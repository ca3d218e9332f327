"""What each ALU operation computes and when each branch is taken.

This is the ISA's one definition of both.  The in-order oracle, the
cycle core and the fast backend all read it, so the engines the oracle
checks cannot disagree on a formula; ``tests/test_isa.py`` pins the
formulas with literal values instead.

Every entry is a Python expression over the two operands ``x`` and ``y``
as the register file holds them: unsigned 64-bit integers (an immediate
operand is its two's-complement encoding).  ``source`` is the expression
itself, for backends that compile it into their own code; ``fn`` is that
expression compiled once, here.  An ALU ``fn`` reduces its result modulo
2**64; a branch ``fn`` returns whether the branch is taken.  Branch
comparisons are signed: flipping the sign bit of both operands maps
signed order onto unsigned order.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple

from repro.isa.instructions import AluOp, BranchCond
from repro.isa.registers import WORD_MASK


class Semantics(NamedTuple):
    """One operation: its expression and the function compiled from it."""

    source: str
    fn: Callable[[int, int], int]


def _compile(expression: str) -> Callable[[int, int], int]:
    return eval("lambda x, y: " + expression, {})


ALU: Dict[AluOp, Semantics] = {
    op: Semantics(source, _compile(f"({source}) & {WORD_MASK}"))
    for op, source in {
        AluOp.ADD: "x + y",
        AluOp.SUB: "x - y",
        AluOp.MUL: "x * y",
        AluOp.AND: "x & y",
        AluOp.OR: "x | y",
        AluOp.XOR: "x ^ y",
        AluOp.SHL: "x << (y & 63)",
        AluOp.SHR: "x >> (y & 63)",
    }.items()}

BRANCH: Dict[BranchCond, Semantics] = {
    cond: Semantics(source, _compile(source))
    for cond, source in {
        BranchCond.EQ: "x == y",
        BranchCond.NE: "x != y",
        BranchCond.LT: "(x ^ 1 << 63) < (y ^ 1 << 63)",
        BranchCond.GE: "(x ^ 1 << 63) >= (y ^ 1 << 63)",
    }.items()}
