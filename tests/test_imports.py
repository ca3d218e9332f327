"""Start-up cost: a run loads only the heavy modules it uses.

``multiprocessing`` is needed only to fan jobs out, so importing the
CLI, the API session or the sampling planner must not load it.  numpy
is needed by nothing at run time: programs are generated from the
in-repo PCG64 stream, so not even a sampled run may load it.  Checked
in a fresh interpreter, the only place the import state is controlled.
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


def test_generating_a_program_and_sampling_load_no_numpy():
    _run("import sys\n"
         "from repro.api.session import Session\n"
         "from repro.core.policy import CommitPolicy\n"
         "from repro.workloads.generator import generate_program\n"
         "from repro.workloads.profiles import profile_by_name\n"
         "generate_program(profile_by_name('namd'))\n"
         "assert 'numpy' not in sys.modules\n"
         "report = Session(cache=False).sample(\n"
         "    'mcf', CommitPolicy.WFC, instructions=4000, interval=1000,\n"
         "    warmup=100, windows=2, window=300)\n"
         "assert report.measured_windows == 2, report.measured_windows\n"
         "assert 'numpy' not in sys.modules\n")
