"""A pipeline process loads neither ``networkx`` nor ``sqlite3``.

Every pool worker of the process backend is a fork of the driver, so
each module the pipeline imports is held once per process.  The
dependency graphs are :class:`repro.core.dependencies.Dag`, and the
run ledger (the one ``sqlite3`` user) is imported only by the code
that writes or reads a ledger.  The check runs in a fresh interpreter:
this test session may have imported either module already.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).parents[1])


def test_pipeline_imports_leave_networkx_and_sqlite3_out():
    code = (
        "import sys\n"
        "import repro, repro.formats, repro.dsp, repro.spectra, repro.plotting\n"
        "import repro.core.processes, repro.engine, repro.parallel\n"
        "print(sorted(m for m in ('networkx', 'sqlite3') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
