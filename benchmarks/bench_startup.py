"""Start-up footprint of a pipeline process: a fresh ``import repro``.

Every pool worker of the process backend is a fork of the driver, so
what ``import repro`` loads is paid once per process and held by each
worker.  Each measurement imports ``repro`` in a fresh interpreter and
reports the import's wall time, the number of modules loaded and the
interpreter's peak RSS, read from ``RUSAGE_CHILDREN`` by a launcher
whose only child it is.  As a plain test (``--benchmark-disable``) it
asserts that ``scipy.signal``, ``networkx`` and ``sqlite3`` stay out.

Run standalone for a few repeats::

    PYTHONPATH=src python benchmarks/bench_startup.py --repeats 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import repro

#: Imports ``repro`` and reports what that loaded, as one JSON line.
_CHILD = (
    "import json, sys, time\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "print(json.dumps({'import_s': time.perf_counter() - start,"
    " 'modules': len(sys.modules), 'scipy_signal': 'scipy.signal' in sys.modules,"
    " 'networkx': 'networkx' in sys.modules, 'sqlite3': 'sqlite3' in sys.modules}))\n"
)

#: Runs ``_CHILD`` as its only child, so the peak RSS of its children
#: (kilobytes on Linux) is the child's own.
_LAUNCHER = (
    "import json, resource, subprocess, sys\n"
    "out = subprocess.run([sys.executable, '-c', sys.argv[1]],"
    " capture_output=True, text=True, check=True).stdout\n"
    "footprint = json.loads(out)\n"
    "footprint['maxrss_mb'] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
    "print(json.dumps(footprint))\n"
)


def fresh_import() -> dict:
    """``import_s``, ``modules``, ``maxrss_mb`` and whether ``scipy_signal``,
    ``networkx`` and ``sqlite3`` were loaded, for one fresh interpreter's
    ``import repro``."""
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, _CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bench_fresh_import(benchmark):
    footprint = benchmark(fresh_import)
    loaded = [key for key in ("scipy_signal", "networkx", "sqlite3") if footprint[key]]
    assert not loaded, f"import repro loaded {loaded}"
    assert footprint["modules"] > 0 and footprint["maxrss_mb"] > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    runs = [fresh_import() for _ in range(args.repeats)]
    for run in runs:
        print(json.dumps(run))
    print(
        f"median: import {statistics.median(r['import_s'] for r in runs):.3f} s, "
        f"{statistics.median(r['modules'] for r in runs):.0f} modules, "
        f"ru_maxrss {statistics.median(r['maxrss_mb'] for r in runs):.1f} MB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
