"""Exception hierarchy for the SafeSpec reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class AssemblyError(ReproError):
    """A program could not be assembled (bad opcode, unknown label...)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent or unsupported state."""


class OracleError(ReproError):
    """The reference oracle cannot compute an architectural result.

    Raised when a program uses a timing-dependent value (an ``rdtsc``
    result) where the architectural outcome would depend on it — as an
    address, a branch operand, a store value, or an indirect-jump
    target.  The fuzzer never generates such programs; hitting this is
    a generator bug, not a simulator divergence.
    """


class SampleError(ReproError):
    """Sampled simulation could not produce an estimate (no measurable
    windows, or a checkpoint could not be taken at the requested point)."""

