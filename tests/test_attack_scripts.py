"""Every registered attack's machine script, pinned call by call.

``golden_timing.json`` pins each attack's final result on the cycle core
at secret 42.  This module pins the whole sequence of machine calls that
produces it, for all attacks x 3 policies x both backends at secrets 42
and 200 (200 exercises the TLB variants' ``% 64`` remap):

* each machine build: the spec digest, policy and backend;
* each ``run``: a digest of the program's ``to_source()``, the initial
  registers, privilege, fault-handler PC and the other run options,
  plus the run's cycles, instructions, halt reason, faults and a digest
  of its registers and counters;
* each map call and each probe call (a digest of the addresses and of
  the latencies returned);
* every write to backing memory and every ``clflush`` made outside a
  run, by physical address.  They are recorded at the memory and the
  hierarchy, so ``Machine.write_word`` and a direct backing-memory write
  of the same word count alike, as do ``flush_address`` and a
  ``clflush`` of its physical line;
* the final :class:`AttackResult` (secret, leaked, details).

More than two consecutive calls of one kind are stored folded, as their
count and a digest.

To regenerate after an intentional change to an attack::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_attack_scripts.py
"""

import functools
import hashlib
import inspect
import json
import os
import pathlib
import pickle

import pytest

from repro.api.registry import attack_names
from repro.attacks.runner import run_attack_by_name
from repro.core.policy import CommitPolicy
from repro.machine import Machine
from repro.memory.dram import MainMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.spec import MachineSpec

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "attack_scripts.json"

SECRETS = (42, 200)
BACKENDS = ("cycle", "fast")

_PROBES = ("probe_latency", "probe_fetch_latency", "probe_latencies",
           "probe_translation_latency")


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (code base, pickled instructions) -> digest of the program's
# to_source().  Attacks rebuild their victims on every call; the pickle
# (which stores an instruction shared by several slots once) costs a
# hundredth of formatting the listing again.
_SOURCES = {}


def _source_digest(program) -> str:
    key = (program.code_base, pickle.dumps(program.instructions))
    digest = _SOURCES.get(key)
    if digest is None:
        digest = _SOURCES[key] = hashlib.sha256(
            program.to_source().encode()).hexdigest()[:16]
    return digest


@functools.lru_cache(maxsize=None)
def _signature(function):
    return inspect.signature(function)


class _Recorder:
    """Wraps the machine's entry points at class level for one attack."""

    def __init__(self, monkeypatch):
        self.script = []
        self._depth = 0                 # > 0 while a program runs
        self._programs = {}             # id(program) -> (program, digest)
        self._wrap(monkeypatch, Machine, "run", self._on_run)
        for name in ("map_user_range", "map_kernel_range", *_PROBES):
            self._wrap(monkeypatch, Machine, name, self._on_call)
        for cls, name in ((MainMemory, "write_word"),
                          (MemoryHierarchy, "clflush")):
            self._wrap_setup(monkeypatch, cls, name)
        original = Machine.from_spec.__func__

        def from_spec(cls, spec=MachineSpec(), **kwargs):
            machine = original(cls, spec, **kwargs)
            self.script.append(["machine", spec.digest(),
                                machine.policy.value, machine.backend])
            return machine

        monkeypatch.setattr(Machine, "from_spec", classmethod(from_spec))

    def _wrap(self, monkeypatch, cls, name, on_call):
        original = getattr(cls, name)
        signature = _signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return on_call(name, original, bound)

        monkeypatch.setattr(cls, name, wrapper)

    def _source_digest(self, program) -> str:
        # A victim runs several times per attack: look it up by identity
        # first (the entry keeps the program, hence its id, alive).
        entry = self._programs.get(id(program))
        if entry is None:
            entry = self._programs[id(program)] = (
                program, _source_digest(program))
        return entry[1]

    def _on_run(self, name, original, bound):
        self._depth += 1
        try:
            result = original(*bound.args, **bound.kwargs)
        finally:
            self._depth -= 1
        arguments = bound.arguments
        self.script.append([
            "run", self._source_digest(arguments["program"]),
            sorted((arguments["initial_registers"] or {}).items()),
            arguments["privilege"].name, arguments["fault_handler_pc"],
            arguments["max_instructions"], arguments["start_pc"],
            arguments["map_code"],
            result.cycles, result.instructions, result.halted_reason,
            [event.kind for event in result.fault_events],
            _digest([list(result.registers), result.counters])])
        return result

    def _on_call(self, name, original, bound):
        if "vaddrs" in bound.arguments:
            bound.arguments["vaddrs"] = list(bound.arguments["vaddrs"])
        result = original(*bound.args, **bound.kwargs)
        arguments = {key: value for key, value in bound.arguments.items()
                     if key != "self"}
        if name in _PROBES:
            if "vaddrs" in arguments:
                arguments["vaddrs"] = _digest(arguments["vaddrs"])
            arguments["result"] = _digest(result)
        self.script.append([name, sorted(arguments.items())])
        return result

    def _wrap_setup(self, monkeypatch, cls, name):
        """Record a positional-only call made outside any run."""
        original = getattr(cls, name)

        @functools.wraps(original)
        def wrapper(obj, *args):
            if not self._depth:
                self.script.append([name, list(args)])
            return original(obj, *args)

        monkeypatch.setattr(cls, name, wrapper)


def _folded(script):
    """``script`` with each stretch of more than two consecutive calls of
    one kind (a receiver's 256 flushes, say) folded into one entry: the
    kind, the count and a digest of the calls."""
    folded, start = [], 0
    while start < len(script):
        end = start + 1
        while end < len(script) and script[end][0] == script[start][0]:
            end += 1
        stretch = script[start:end]
        folded.extend(stretch if len(stretch) <= 2 else
                      [[stretch[0][0], len(stretch), _digest(stretch)]])
        start = end
    return folded


@functools.lru_cache(maxsize=1)
def _fixture():
    return json.loads(FIXTURE.read_text())


def _script(monkeypatch, name, policy, backend, secret):
    recorder = _Recorder(monkeypatch)
    outcome = run_attack_by_name(name, policy, secret, backend=backend)
    # Round-trip through JSON so tuples compare equal to fixture lists.
    return json.loads(json.dumps({
        "script": _folded(recorder.script),
        "result": {"secret": outcome.secret, "leaked": outcome.leaked,
                   "details": outcome.details},
    }))


@pytest.mark.parametrize("name", attack_names())
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("secret", SECRETS)
def test_attack_script_matches_golden(monkeypatch, name, backend, secret):
    entries = {}
    for policy in CommitPolicy:
        key = f"{name}/{policy.value}/{backend}/{secret}"
        entries[key] = _script(monkeypatch, name, policy, backend, secret)
        monkeypatch.undo()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        fixture = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
        fixture.update(entries)
        FIXTURE.write_text(json.dumps(fixture, sort_keys=True, indent=0)
                           + "\n")
        pytest.skip(f"regenerated {name}/{backend}/{secret}")
    fixture = _fixture()
    for key, entry in entries.items():
        assert key in fixture, f"{key} missing from {FIXTURE.name}"
        expected = fixture[key]
        assert entry["result"] == expected["result"], key
        for index, (got, want) in enumerate(zip(entry["script"],
                                                expected["script"])):
            assert got == want, f"{key}: call {index} differs"
        assert len(entry["script"]) == len(expected["script"]), key
