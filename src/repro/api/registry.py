"""Component registries: one place where scenarios plug in.

Attacks, workloads and branch predictors used to live in parallel
hand-maintained tables (a dict plus a tuple of names in
``attacks/runner``, ``SUITE_PROFILES`` plus a ``_BY_NAME`` index in
``workloads/profiles``, an if/elif inside :class:`~repro.machine.Machine`).
Adding one scenario meant touching every one of them.  Each component
kind now has a single decorator-based :class:`Registry`:

* :data:`ATTACKS` — ``name -> attack function`` (``(policy, secret,
  spec=, backend=) -> AttackResult``), with the paper's
  expected-closed metadata attached at registration
  (``branch_free=True`` marks Meltdown-style leaks that
  need no branch misprediction, which WFB does *not* close).
* :data:`WORKLOADS` — ``name -> WorkloadProfile`` in the paper's
  plotting order.
* :data:`PREDICTORS` — ``name -> predictor class``.

Registries populate lazily: the first lookup imports the built-in
modules, whose registration decorators run as a side effect of the
import.  Registering a new component is therefore one decorated
function/profile in one module — the CLI choices,
:meth:`~repro.api.session.Session.matrix` rows, suite order and
:class:`~repro.machine.Machine` dispatch all derive from the registry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.errors import ConfigError


class RegistryEntry(NamedTuple):
    """One registered component: its name, value, and free-form metadata."""

    name: str
    value: Any
    metadata: Dict[str, Any]


class Registry:
    """An ordered name -> component mapping with decorator registration.

    ``loader`` is a zero-argument callable importing the modules whose
    registrations populate this registry; it runs (once) before the
    first lookup, so merely importing :mod:`repro.api` stays cheap.
    """

    def __init__(self, kind: str,
                 loader: Optional[Callable[[], None]] = None) -> None:
        self.kind = kind
        self._loader = loader
        self._loaded = loader is None
        self._entries: Dict[str, RegistryEntry] = {}
        # Names registered during the loader run in progress (None
        # outside one); see add() for the retry semantics it enables.
        self._loading_round: Optional[set] = None

    # -- registration ------------------------------------------------------

    def register(self, name: str, **metadata: Any) -> Callable[[Any], Any]:
        """Decorator: register the decorated object under ``name``."""
        def decorator(value: Any) -> Any:
            self.add(name, value, **metadata)
            return value
        return decorator

    def add(self, name: str, value: Any, **metadata: Any) -> Any:
        """Register ``value`` directly (non-decorator form).

        Re-using a name is an error — except when a loader *retry*
        re-executes a module whose earlier registrations survived a
        failed load (Python evicts only the failed module from
        ``sys.modules``): those re-adds replace the stale entry in
        place, keeping its original (table) position.
        """
        if name in self._entries:
            retrying = (self._loading_round is not None
                        and name not in self._loading_round)
            if not retrying:
                raise ConfigError(
                    f"duplicate {self.kind} registration: {name!r} is "
                    f"already registered")
        self._entries[name] = RegistryEntry(name, value, metadata)
        if self._loading_round is not None:
            self._loading_round.add(name)
        return value

    # -- lookup ------------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            # Flag first: the loader's imports re-enter via add().  A
            # failed load rolls the flag back so the registry is never
            # silently stuck half-populated — the next lookup retries
            # (and re-raises) instead of returning a partial catalogue.
            self._loaded = True
            self._loading_round = set()
            try:
                self._loader()
            except BaseException:
                self._loaded = False
                raise
            finally:
                self._loading_round = None

    def entry(self, name: str) -> RegistryEntry:
        """The full entry for ``name`` (value plus metadata)."""
        self._ensure_loaded()
        if name not in self._entries:
            known = ", ".join(self._entries) or "(none)"
            raise ConfigError(
                f"unknown {self.kind} {name!r}; registered: {known}")
        return self._entries[name]

    def get(self, name: str) -> Any:
        """The registered value for ``name``."""
        return self.entry(name).value

    def metadata(self, name: str) -> Dict[str, Any]:
        """The metadata recorded when ``name`` was registered."""
        return dict(self.entry(name).metadata)

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the registered class/factory for ``name``."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        self._ensure_loaded()
        return list(self._entries)

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)


# ---------------------------------------------------------------------------
# the built-in registries
# ---------------------------------------------------------------------------

def _load_attacks() -> None:
    # The attacks package __init__ is the single place that imports the
    # attack modules, in the paper's Tables III/IV row order — whether
    # the first importer is the API (this loader) or ``repro.attacks``
    # itself, registration order is identical.
    import repro.attacks               # noqa: F401


def _load_workloads() -> None:
    import repro.workloads.profiles    # noqa: F401


def _load_predictors() -> None:
    import repro.frontend.predictors   # noqa: F401


ATTACKS = Registry("attack", loader=_load_attacks)
WORKLOADS = Registry("workload", loader=_load_workloads)
PREDICTORS = Registry("predictor", loader=_load_predictors)


def register_attack(name: str, *,
                    branch_free: bool = False) -> Callable[[Any], Any]:
    """Register an attack entry point (``(policy, secret) -> AttackResult``).

    ``branch_free=True`` marks attacks whose leak needs only a faulting
    load with no unresolved older branch (Meltdown), so WFB promotes the
    transmitting line before the fault is seen at commit; every other
    attack rides a branch misprediction and is closed by WFB and WFC
    alike (paper Table III).
    """
    return ATTACKS.register(name, branch_free=branch_free)


def register_workload(profile: Any) -> Any:
    """Register a workload profile under its own ``name`` attribute."""
    return WORKLOADS.add(profile.name, profile)


def register_predictor(name: str) -> Callable[[Any], Any]:
    """Register a branch-direction predictor class."""
    return PREDICTORS.register(name)


def attack_names() -> List[str]:
    """Registered attack names, in the paper's table order."""
    return ATTACKS.names()


def expected_closed(attack: str, policy: Any) -> bool:
    """Whether the paper says ``policy`` closes ``attack`` (Table III)."""
    if ATTACKS.entry(attack).metadata.get("branch_free"):
        return policy.stops_meltdown
    return policy.stops_spectre
