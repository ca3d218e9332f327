"""Start-up cost: a run loads only the heavy modules it uses.

numpy is needed only to generate a workload program and
``multiprocessing`` only to fan jobs out, so importing the CLI, the
API session or the sampling planner must load neither.  Checked in a
fresh interpreter, the only place the import state is controlled.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).parents[1])


def _run(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_entry_points_load_neither_numpy_nor_multiprocessing():
    _run("import sys\n"
         "import repro, repro.cli, repro.api.session, repro.sample.plan\n"
         "loaded = {'numpy', 'multiprocessing'} & set(sys.modules)\n"
         "assert not loaded, sorted(loaded)\n")


def test_generating_a_program_loads_numpy():
    _run("import sys\n"
         "from repro.workloads.generator import generate_program\n"
         "from repro.workloads.profiles import profile_by_name\n"
         "assert 'numpy' not in sys.modules\n"
         "generate_program(profile_by_name('namd'))\n"
         "assert 'numpy' in sys.modules\n")
