"""Outside-in layer tracing: wrap each layer's public entry points.

A :class:`Tracer` owns the spans.  :func:`install` replaces every
function in :data:`TARGETS` with a timing wrapper and returns an
:class:`Installation` whose :meth:`~Installation.uninstall` puts the
originals back; nothing is wrapped unless a traced pass asks for it.

Self time is exact: each open span accumulates the duration of its
wrapped children, and on exit its self time is its own duration minus
that.  Per-cycle hooks are called millions of times, so every span is
folded into per-name totals as it closes; only the coarse spans (jobs,
machine builds, pipeline runs, ...) are also kept as records (name,
start, end, parent, job id) for the span file written at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_MARK = "__perfbench_span__"

# Simulated counters summed over run results, by backend prefix.
_RUN_COUNTERS = ("cycles", "committed", "squashed", "branches", "mispredicts",
                 "dcache_read_accesses", "dcache_read_misses",
                 "icache_accesses", "icache_misses")


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` is ``func`` or ``Class.method``.

    ``record`` keeps a span record per call (coarse spans only);
    ``result`` names the hook that reads the call's return value.
    """

    span: str
    module: str
    attr: str
    record: bool = False
    result: Optional[str] = None


def _methods(span: str, module: str, cls: str, names: Tuple[str, ...],
             **kw: Any) -> List[Target]:
    return [Target(span, module, f"{cls}.{name}", **kw) for name in names]


_SAFESPEC = "repro.core.safespec"
_HIER = "repro.memory.hierarchy"
_PRED = "repro.frontend.predictors"

# The layer boundaries.  A function is wrapped under the name its callers
# look up: module-level functions are rebound in every ``repro`` module
# that imported them by name, methods on their class.
TARGETS: List[Target] = [
    Target("exec.execute_job", "repro.exec.executor", "execute_job", True),
    Target("workloads.generate", "repro.workloads.generator",
           "generate_program", True),
    Target("isa.build", "repro.isa.assembler", "ProgramBuilder.build", True),
    Target("isa.build", "repro.isa.assembler", "assemble", True),
    Target("machine.build", "repro.machine", "Machine.__init__", True),
    *_methods("attacks.probe", "repro.machine", "Machine",
              ("probe_latency", "probe_fetch_latency",
               "probe_translation_latency"), record=True),
    Target("attacks.run", "repro.attacks.runner", "run_attack_by_name", True),
    Target("verify.case", "repro.verify.harness", "verify_case", True),
    Target("verify.oracle", "repro.verify.oracle", "ReferenceOracle.run", True),
    Target("pipeline.run", "repro.pipeline.core", "Core.run", True, "cycle"),
    Target("backends.fast.run", "repro.backends.fast", "FastBackend.run",
           True, "fast"),
    Target("sample.scan", "repro.sample.plan", "scan_checkpoints", True),
    Target("sample.checkpoint", "repro.sample.checkpoint",
           "Checkpoint.capture", True),
    Target("sample.checkpoint", "repro.sample.checkpoint",
           "Checkpoint.apply", True),
    Target("sample.stitch", "repro.sample.driver", "stitch_windows", True),
    Target("core.set_cycle", _SAFESPEC, "SafeSpecEngine.set_cycle"),
    Target("core.sample_occupancy", _SAFESPEC,
           "SafeSpecEngine.sample_occupancy"),
    *_methods("core.record", _SAFESPEC, "SafeSpecEngine",
              ("record_line", "record_translation")),
    Target("core.promote", _SAFESPEC, "SafeSpecEngine.promote",
           result="promoted"),
    Target("core.annul", _SAFESPEC, "SafeSpecEngine.annul",
           result="annulled"),
    Target("core.on_commit", _SAFESPEC, "SafeSpecEngine.on_commit"),
    Target("core.on_squash", _SAFESPEC, "SafeSpecEngine.on_squash"),
    Target("core.on_branch_resolved", _SAFESPEC,
           "SafeSpecEngine.on_branch_resolved"),
    Target("memory.data_access", _HIER, "MemoryHierarchy.data_access"),
    Target("memory.fetch_access", _HIER, "MemoryHierarchy.fetch_access"),
    Target("memory.translate", _HIER, "MemoryHierarchy.translate"),
    *_methods("memory.refresh", _HIER, "MemoryHierarchy",
              ("refresh_committed_translation", "refresh_line_recency",
               "refresh_walk_lines")),
    Target("memory.commit_store", _HIER, "MemoryHierarchy.commit_store"),
    *[t for cls in ("BimodalPredictor", "GsharePredictor", "TAGEPredictor",
                    "PerceptronPredictor")
      for t in (Target("frontend.predict", _PRED, f"{cls}.predict"),
                Target("frontend.update", _PRED, f"{cls}.update"))],
    *_methods("frontend.btb", "repro.frontend.btb", "BranchTargetBuffer",
              ("predict_target", "update", "note_branch")),
]

SPANS: Tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))


class Tracer:
    """Span bookkeeping for one traced pass.

    ``clock`` returns seconds; ``job`` returns the id of the job in
    flight (the number of jobs completed before it).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 job: Callable[[], int] = lambda: 0) -> None:
        self.clock = clock
        self.job = job
        # span name -> [calls, self seconds, total seconds]
        self.totals: Dict[str, List[float]] = {s: [0, 0.0, 0.0] for s in SPANS}
        # kept span records: (id, name, start, end, parent id, job id)
        self.records: List[Tuple[int, str, float, float, int, int]] = []
        # simulated sums read from wrapped return values
        self.sums: Dict[str, float] = {}
        self._stack: List[List[float]] = []   # open spans: [start, child s]
        self._open_record = -1                 # innermost kept span id
        self._next_id = 0

    def wrap(self, span: str, fn: Callable, record: bool = False,
             result: Optional[str] = None) -> Callable:
        """``fn`` timed as one call of ``span``."""
        acc = self.totals.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock
        on_result = _RESULT_HOOKS[result] if result else None
        sums = self.sums

        def close(frame: List[float]) -> None:
            end = clock()
            stack.pop()
            duration = end - frame[0]
            acc[0] += 1
            acc[1] += duration - frame[1]
            acc[2] += duration
            if stack:
                stack[-1][1] += duration
            if record:
                self._open_record = int(frame[3])
                self.records.append((int(frame[2]), span, frame[0], end,
                                     int(frame[3]), int(frame[4])))

        if record:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id = self._next_id
                self._next_id += 1
                frame = [clock(), 0.0, span_id, self._open_record, self.job()]
                self._open_record = span_id
                stack.append(frame)
                try:
                    value = fn(*args, **kwargs)
                finally:
                    close(frame)
                if on_result is not None:
                    on_result(sums, value)
                return value
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    value = fn(*args, **kwargs)
                finally:
                    close(frame)
                if on_result is not None:
                    on_result(sums, value)
                return value

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, span)
        return wrapper

    def layer_self_s(self) -> float:
        """Seconds spent inside any span, counted once."""
        return sum(acc[1] for acc in self.totals.values())


def _add_run_counters(prefix: str):
    def read(sums: Dict[str, float], result: Any) -> None:
        sums[f"{prefix}.instructions"] = (
            sums.get(f"{prefix}.instructions", 0) + result.instructions)
        for key in _RUN_COUNTERS:
            name = f"{prefix}.{key}"
            sums[name] = sums.get(name, 0) + result.counters.get(key, 0)
    return read


def _add_count(name: str):
    def read(sums: Dict[str, float], result: Any) -> None:
        sums[name] = sums.get(name, 0) + (result or 0)
    return read


_RESULT_HOOKS = {
    "cycle": _add_run_counters("cycle"),
    "fast": _add_run_counters("fast"),
    "promoted": _add_count("promoted"),
    "annulled": _add_count("annulled"),
}


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------

def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Installation:
    """The attribute bindings one :func:`install` replaced."""

    def __init__(self) -> None:
        self.undo: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()
        # A module imported while tracing copied wrappers from the
        # defining module; unwrap those bindings too.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if getattr(value, _MARK, None) is not None:
                    setattr(module, attr, value.__wrapped__)


def install(tracer: Tracer) -> Installation:
    """Wrap every target; missing ones are listed, not fatal."""
    from repro.backends import backend_names

    # Importing a backend module directly registers it; let the registry
    # load first so the backend order stays the presentation order.
    backend_names()
    done = Installation()
    for target in TARGETS:
        try:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            done.missing.append(f"{target.module}:{target.attr}")
            continue
        wrapper = tracer.wrap(target.span, getattr(raw, "__func__", raw),
                              target.record, target.result)
        if owner_name:
            done.undo.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapper)
                    if isinstance(raw, classmethod) else wrapper)
            continue
        for other in _repro_modules():
            for name, value in list(vars(other).items()):
                if value is raw:
                    done.undo.append((other, name, raw))
                    setattr(other, name, wrapper)
    if done.missing:
        print("perfbench: not traced (target missing): "
              + ", ".join(done.missing), file=sys.stderr)
    return done


def wrapped_bindings() -> List[str]:
    """Every ``repro`` binding currently replaced by a span wrapper."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, _MARK, None) is not None:
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    func = getattr(member, "__func__", member)
                    if getattr(func, _MARK, None) is not None:
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass of ``wall_s`` seconds."""
    out: Dict[str, float] = {}
    for span, (calls, self_s, _total) in tracer.totals.items():
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = self_s
    s = tracer.sums.get
    cycles = s("cycle.cycles", 0)
    committed = s("cycle.committed", 0)
    squashed = s("cycle.squashed", 0)
    out["pipeline.cycles"] = cycles
    out["pipeline.committed"] = committed
    out["pipeline.squashed"] = squashed
    out["pipeline.useful_frac"] = _ratio(committed, committed + squashed)
    out["pipeline.ns_per_cycle"] = _ratio(
        tracer.totals["pipeline.run"][2] * 1e9, cycles)
    promoted, annulled = s("promoted", 0), s("annulled", 0)
    out["core.promoted"] = promoted
    out["core.annulled"] = annulled
    out["core.promote_frac"] = _ratio(promoted, promoted + annulled)

    def both(key: str) -> float:
        return s(f"cycle.{key}", 0) + s(f"fast.{key}", 0)

    out["memory.dcache_miss_frac"] = _ratio(both("dcache_read_misses"),
                                            both("dcache_read_accesses"))
    out["memory.icache_miss_frac"] = _ratio(both("icache_misses"),
                                            both("icache_accesses"))
    out["frontend.mispredict_frac"] = _ratio(both("mispredicts"),
                                             both("branches"))
    out["backends.fast.ns_per_inst"] = _ratio(
        tracer.totals["backends.fast.run"][2] * 1e9,
        s("fast.instructions", 0))
    out["trace.other.self_s"] = wall_s - tracer.layer_self_s()
    return out
