"""The declarative hardware description: one value per machine shape.

A :class:`MachineSpec` composes every sizing knob the simulator exposes —
the out-of-order core (:class:`~repro.pipeline.config.CoreConfig`), the
memory system (:class:`~repro.memory.hierarchy.HierarchyConfig`), the
optional SafeSpec shadow configuration
(:class:`~repro.core.safespec.SafeSpecConfig`), the branch predictor
name, and the BTB geometry — into a single frozen, hashable value.

Because the spec is a *value*, every machine shape becomes first-class:

* serializable — :meth:`MachineSpec.to_dict` /
  :meth:`MachineSpec.from_dict` round-trip through plain JSON types;
* cacheable — :meth:`MachineSpec.digest` is a stable content hash, so
  the on-disk result cache distinguishes hardware shapes;
* sweepable — a :class:`~repro.api.sweep.Sweep` takes a ``specs``
  axis and runs sensitivity curves through the executor's worker pool;
* derivable — :meth:`MachineSpec.derive` produces a variant by dotted
  path without mutating the base::

      small = spec.derive(**{"core.rob_entries": 64,
                             "hierarchy.l1d.size_bytes": 16 * 1024})

Unknown paths, unknown fields in a payload, and values that violate a
config's own invariants all raise
:class:`~repro.errors.ConfigError` before any simulation runs.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from dataclasses import dataclass
from typing import (Any, Dict, Mapping, Optional, Sequence, Union,
                    get_args, get_origin, get_type_hints)

from repro.core.safespec import SafeSpecConfig
from repro.errors import ConfigError
from repro.frontend.btb import BTBConfig
from repro.frontend.rsb import RSBConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline.config import CoreConfig

# Bump when the spec tree's field layout changes incompatibly; the
# digest (and therefore every spec-carrying job key) namespaces on it.
# v2: rsb section, btb.history_bits, core.mem_dep_speculation.
SPEC_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class MachineSpec:
    """A complete, immutable description of one simulated machine.

    The default value reproduces the paper's Table I/II Skylake-like
    configuration with no SafeSpec engine config attached — exactly the
    machine ``Machine()`` has always built.  ``safespec`` is the shadow
    *sizing* configuration; the commit policy remains a per-run axis
    (``Machine.from_spec(spec, policy=...)`` overrides the policy field
    of an attached ``safespec``), so one hardware shape can be swept
    across baseline/WFB/WFC without three near-identical specs.
    """

    core: CoreConfig = CoreConfig()
    hierarchy: HierarchyConfig = HierarchyConfig()
    safespec: Optional[SafeSpecConfig] = None
    predictor: str = "bimodal"
    btb: BTBConfig = BTBConfig()
    rsb: RSBConfig = RSBConfig()

    def __post_init__(self) -> None:
        if not self.predictor or not isinstance(self.predictor, str):
            raise ConfigError("predictor must be a non-empty name "
                              "(see repro.api.registry.PREDICTORS)")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """This spec as a nested dict of JSON-representable primitives."""
        payload: Dict[str, Any] = {"spec_schema": SPEC_SCHEMA_VERSION}
        for field in dataclasses.fields(self):
            payload[field.name] = _as_plain(getattr(self, field.name))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MachineSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        ``from_dict(to_dict(s)) == s`` for every valid spec; unknown
        keys and malformed values raise :class:`ConfigError`.
        """
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"machine spec payload must be a mapping, "
                f"got {type(payload).__name__}")
        schema = payload.get("spec_schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported machine spec schema {schema!r} "
                f"(this build reads v{SPEC_SCHEMA_VERSION})")
        body = {k: v for k, v in payload.items() if k != "spec_schema"}
        return _build_dataclass(cls, body, path="")

    def digest(self) -> str:
        """Stable content hash of this spec (hex SHA-256).

        Computed over the canonical JSON form of :meth:`to_dict`, so it
        is identical across processes, interpreter restarts and
        platforms for equal specs.
        """
        return _digest(self)

    def short_digest(self) -> str:
        """The first 12 hex chars of :meth:`digest` (display use)."""
        return self.digest()[:12]

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def derive(self, **overrides: Any) -> "MachineSpec":
        """A new spec with dotted-path ``overrides`` applied.

        Keys are dotted paths into the spec tree (``"core.rob_entries"``,
        ``"hierarchy.l1d.size_bytes"``, ``"safespec.sizing"``, or a
        whole section like ``"core"``/``"safespec"``).  Values may be
        the target type, an enum's string value, or — for whole
        sections — a config object (or ``None`` to drop ``safespec``).
        Overrides touching one config object are applied atomically, so
        co-dependent fields (``core.rob_entries`` + ``core.iq_entries``)
        never trip an intermediate invariant.  Unknown paths raise
        :class:`ConfigError` naming the known fields at the failing
        level; deriving into ``safespec.*`` while ``safespec`` is
        ``None`` starts from a default :class:`SafeSpecConfig`.
        """
        if not overrides:
            return self
        tree: Dict[str, Any] = {}
        for path, value in overrides.items():
            parts = path.split(".")
            if not all(parts):
                raise ConfigError(f"malformed spec path {path!r}")
            node = tree
            for part in parts[:-1]:
                existing = node.get(part)
                if existing is not None and not isinstance(existing, dict):
                    raise ConfigError(
                        f"conflicting overrides: {path!r} descends into a "
                        f"section also replaced wholesale")
                node = node.setdefault(part, {})
                if not isinstance(node, dict):  # pragma: no cover - guarded
                    raise ConfigError(f"conflicting overrides at {path!r}")
            leaf = parts[-1]
            if isinstance(node.get(leaf), dict):
                raise ConfigError(
                    f"conflicting overrides: {path!r} replaces a section "
                    f"other overrides descend into")
            node[leaf] = _Leaf(value)
        return _apply_tree(self, tree, prefix="")

    @classmethod
    def resolve_path(cls, path: str) -> Any:
        """The (resolved) type at a dotted path, or raise ConfigError.

        Used to validate sweep-variant paths before any simulation and
        by the CLI ``--set`` parser to pick a string coercion.
        """
        return cls._resolve_path(path)[0]

    @classmethod
    def _resolve_path(cls, path: str) -> "tuple[Any, bool]":
        """(resolved type, is-optional) at a dotted path."""
        parts = path.split(".")
        if not all(parts):
            raise ConfigError(f"malformed spec path {path!r}")
        current: Any = cls
        optional = False
        walked = []
        for part in parts:
            if not dataclasses.is_dataclass(current):
                raise ConfigError(
                    f"spec path {path!r}: {'.'.join(walked)!r} has no "
                    f"sub-fields")
            hints = get_type_hints(current)
            names = [f.name for f in dataclasses.fields(current)]
            if part not in names:
                where = ".".join(walked) or "spec"
                raise ConfigError(
                    f"unknown spec path {path!r}: {where} has no field "
                    f"{part!r}; known: {', '.join(names)}")
            raw = hints[part]
            current = _strip_optional(raw)
            optional = current is not raw
            walked.append(part)
        return current, optional

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def diff(self, other: "MachineSpec") -> str:
        """Human-readable field-by-field difference, one line per path.

        Lines read ``path: mine -> theirs``; an empty string means the
        specs are equal.
        """
        mine = _flatten(self.to_dict())
        theirs = _flatten(other.to_dict())
        lines = []
        for path in sorted(set(mine) | set(theirs)):
            a = mine.get(path, "(unset)")
            b = theirs.get(path, "(unset)")
            if a != b:
                lines.append(f"{path}: {a} -> {b}")
        return "\n".join(lines)


# Memoized by spec value: every job key folds in its spec's digest, so
# a batch serializes each distinct spec once, not once per job.  Bounded
# well above the distinct specs one sweep holds.
@functools.lru_cache(maxsize=1024)
def _digest(spec: MachineSpec) -> str:
    canonical = json.dumps(spec.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# CLI ``--set key=value`` parsing
# ---------------------------------------------------------------------------

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def derive_from_strings(spec: MachineSpec,
                        assignments: Sequence[str]) -> MachineSpec:
    """Apply ``key=value`` strings (the CLI ``--set`` flag) to a spec.

    The value string is coerced by the target field's declared type:
    ints accept decimal/hex/underscores (``--set
    hierarchy.l1d.size_bytes=0x4000``), enums accept their value names
    (``--set safespec.sizing=performance``), and ``none`` clears an
    optional field (``--set safespec=none``).
    """
    overrides: Dict[str, Any] = {}
    for assignment in assignments:
        path, sep, text = assignment.partition("=")
        path = path.strip()
        if not sep or not path:
            raise ConfigError(
                f"--set expects key=value, got {assignment!r}")
        target, optional = MachineSpec._resolve_path(path)
        overrides[path] = _coerce_string(target, optional,
                                         text.strip(), path)
    return spec.derive(**overrides)


def _coerce_string(target: Any, optional: bool, text: str,
                   path: str) -> Any:
    if text.lower() in ("none", "null"):
        # Only an Optional field may be cleared; 'none' for a required
        # int would otherwise surface later as a raw TypeError (or,
        # for a required section, silently fall back to defaults).
        if optional:
            return None
        raise ConfigError(
            f"{path} is required and cannot be set to {text!r}")
    if isinstance(target, type) and issubclass(target, enum.Enum):
        try:
            return target(text.lower())
        except ValueError:
            values = ", ".join(member.value for member in target)
            raise ConfigError(
                f"{path}: unknown value {text!r}; choose from {values}")
    if dataclasses.is_dataclass(target):
        raise ConfigError(
            f"{path} is a config section; set its fields "
            f"({path}.<field>=...) or 'none' to clear an optional one")
    if target is bool:
        if text.lower() in _TRUE:
            return True
        if text.lower() in _FALSE:
            return False
        raise ConfigError(f"{path}: expected a boolean, got {text!r}")
    if target is int:
        try:
            return int(text, 0)
        except ValueError:
            raise ConfigError(f"{path}: expected an integer, got {text!r}")
    if target is float:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{path}: expected a number, got {text!r}")
    return text


# ---------------------------------------------------------------------------
# generic dataclass <-> plain-value machinery
# ---------------------------------------------------------------------------

class _Leaf:
    """Wrapper distinguishing an override value from a nested tree."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def _as_plain(value: Any) -> Any:
    """A config value as JSON-representable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _as_plain(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigError(
        f"cannot serialize spec value of type {type(value).__name__}")


def _strip_optional(annotation: Any) -> Any:
    """``Optional[T] -> T``; other annotations pass through."""
    if get_origin(annotation) is Union:
        args = [a for a in get_args(annotation) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return annotation


def _convert(target: Any, value: Any, path: str) -> Any:
    """Coerce ``value`` to the (possibly Optional) ``target`` type.

    Wrong-typed leaves raise :class:`ConfigError` here, before a
    config's ``__post_init__`` would trip over them with a raw
    ``TypeError`` (hand-edited payloads, sweep-variant values).
    """
    where = path or "spec"
    stripped = _strip_optional(target)
    if value is None:
        if stripped is not target:      # annotation was Optional
            return None
        raise ConfigError(f"{where} is required and cannot be null")
    target = stripped
    if dataclasses.is_dataclass(target) and isinstance(target, type):
        if isinstance(value, target):
            return value
        if isinstance(value, Mapping):
            return _build_dataclass(target, value, path)
        raise ConfigError(
            f"{where}: expected {target.__name__} (or a "
            f"mapping), got {type(value).__name__}")
    if isinstance(target, type) and issubclass(target, enum.Enum):
        if isinstance(value, target):
            return value
        try:
            return target(value)
        except ValueError:
            values = ", ".join(member.value for member in target)
            raise ConfigError(
                f"{where}: unknown value {value!r}; choose "
                f"from {values}")
    if target is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{where}: expected a boolean, got {value!r}")
    if target is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if target is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if target is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _build_dataclass(cls: type, payload: Mapping[str, Any],
                     path: str) -> Any:
    """Instantiate ``cls`` from a plain mapping, strictly."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(fields)
    if unknown:
        where = path or cls.__name__
        raise ConfigError(
            f"unknown field(s) {sorted(unknown)} in {where}; known: "
            f"{', '.join(fields)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, value in payload.items():
        child = f"{path}.{name}" if path else name
        kwargs[name] = _convert(hints[name], value, child)
    return cls(**kwargs)


def _apply_tree(obj: Any, tree: Dict[str, Any], prefix: str) -> Any:
    """Rebuild ``obj`` with an override tree applied atomically."""
    if not dataclasses.is_dataclass(obj):
        raise ConfigError(
            f"spec path {prefix!r} has no sub-fields to override")
    hints = get_type_hints(type(obj))
    names = [f.name for f in dataclasses.fields(obj)]
    kwargs: Dict[str, Any] = {}
    for name, node in tree.items():
        child = f"{prefix}.{name}" if prefix else name
        if name not in names:
            where = prefix or "spec"
            raise ConfigError(
                f"unknown spec path {child!r}: {where} has no field "
                f"{name!r}; known: {', '.join(names)}")
        if isinstance(node, _Leaf):
            kwargs[name] = _convert(hints[name], node.value, child)
        else:
            current = getattr(obj, name)
            if current is None:
                # Deriving into an absent optional section starts from
                # that section's defaults (only ``safespec`` today).
                current = _strip_optional(hints[name])()
            kwargs[name] = _apply_tree(current, node, child)
    return dataclasses.replace(obj, **kwargs)


def _flatten(payload: Any, prefix: str = "") -> Dict[str, Any]:
    """Dotted-path -> leaf-value view of a nested to_dict tree."""
    if not isinstance(payload, dict):
        return {prefix: payload}
    flat: Dict[str, Any] = {}
    for key, value in payload.items():
        if key == "spec_schema" and not prefix:
            continue
        child = f"{prefix}.{key}" if prefix else key
        flat.update(_flatten(value, child))
    return flat
