"""Every ``--format json`` subcommand emits the same response envelope.

The contract (documented in :mod:`repro.cli`): machine-readable output
is always ``{"schema_version": N, "rev": "<git rev>", "command":
"<name>", "payload": {...}}``, so scripted consumers dispatch on one
shape no matter which subcommand produced it.
"""

import json

import pytest

from repro.cli import main
from repro.exec.job import SCHEMA_VERSION

ENVELOPE_KEYS = {"schema_version", "rev", "command", "payload"}

# (id, expected command name, argv). Budgets are tiny: these runs exist
# to exercise the serialization surface, not the simulator.
CASES = [
    ("attack", "attack",
     ["attack", "spectre_v1", "--policy", "baseline", "--no-cache"]),
    ("matrix", "matrix", ["matrix", "--no-cache"]),
    ("workload", "workload",
     ["workload", "namd", "--instructions", "1200", "--no-cache"]),
    ("run-alias", "run",
     ["run", "namd", "--instructions", "1200", "--no-cache"]),
    ("figures", "figures",
     ["figures", "--benchmarks", "namd", "--instructions", "1200",
      "--no-cache"]),
    ("specs-list", "specs", ["specs"]),
    ("specs-show", "specs", ["specs", "safespec-secure"]),
    ("verify", "verify",
     ["verify", "--count", "2", "--instructions", "2000", "--no-cache"]),
    ("sample", "sample",
     ["sample", "namd", "--instructions", "3000", "--interval", "1500",
      "--warmup", "200", "--windows", "2", "--window", "400",
      "--no-cache"]),
    ("cache-stats", "cache", ["cache", "stats", "--cache-dir", "{tmp}"]),
    ("cache-gc", "cache",
     ["cache", "gc", "--cache-dir", "{tmp}", "--max-entries", "5"]),
]


@pytest.mark.parametrize(("command", "argv"),
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_json_envelope(command, argv, capsys, tmp_path):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv + ["--format", "json"]) == 0

    envelope = json.loads(capsys.readouterr().out)
    assert set(envelope) == ENVELOPE_KEYS
    assert envelope["schema_version"] == SCHEMA_VERSION
    assert envelope["command"] == command
    assert isinstance(envelope["rev"], str) and envelope["rev"]
    assert isinstance(envelope["payload"], dict) and envelope["payload"]
