"""Architectural register file description.

Sixteen general-purpose 64-bit registers, named ``r0`` .. ``r15``.
``r0`` is an ordinary register (not hardwired to zero); immediates cover
the constant-zero use case.
"""

from __future__ import annotations

from repro.errors import AssemblyError

NUM_REGISTERS = 16
REGISTER_NAMES = tuple(f"r{i}" for i in range(NUM_REGISTERS))
WORD_MASK = (1 << 64) - 1


def register_index(name: str) -> int:
    """Resolve ``"rN"`` to its register index, validating the range."""
    if not name.startswith("r"):
        raise AssemblyError(f"bad register name {name!r}")
    try:
        index = int(name[1:])
    except ValueError as exc:
        raise AssemblyError(f"bad register name {name!r}") from exc
    if not 0 <= index < NUM_REGISTERS:
        raise AssemblyError(
            f"register index out of range: {name!r} "
            f"(have {NUM_REGISTERS} registers)")
    return index


def to_unsigned(value: int) -> int:
    """Truncate a Python integer to the 64-bit register width."""
    return value & WORD_MASK
