"""P16's compiled filter is bound without importing ``scipy.signal``.

``repro.spectra.response`` loads only scipy's ``_sigtools`` extension,
so a pipeline process carries none of the ~720 modules the
``scipy.signal`` package ``__init__`` imports.  Each check runs in a
fresh interpreter: this test session imports ``scipy.signal`` itself
(the bit-for-bit tests compare against ``lfilter``), which would mask
what ``import repro`` loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: ``src/`` for ``repro`` and the repository root for ``tests``.
PATHS = [str(Path(repro.__file__).parents[1]), str(Path(__file__).parents[2])]


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*PATHS, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pipeline_imports_leave_scipy_signal_out():
    out = _run(
        "import sys\n"
        "import repro, repro.formats, repro.dsp, repro.spectra, repro.plotting\n"
        "import repro.core.processes, repro.engine, repro.parallel\n"
        "from repro.spectra import response\n"
        "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'\n"
        "assert response._linear_filter is sys.modules['scipy.signal._sigtools']._linear_filter\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"


def test_later_scipy_signal_import_gives_lfilter_bits():
    # The floor tests import scipy.signal's lfilter after the binding
    # and compare its bits with the bound filter's.
    out = _run(
        "import sys\n"
        "from repro.spectra import response\n"
        "assert 'scipy.signal' not in sys.modules\n"
        "from tests.spectra import test_response_floor as floor\n"
        "import scipy.signal\n"
        "# The submodule was in sys.modules before the package ran.\n"
        "assert not hasattr(scipy.signal, '_sigtools')\n"
        "from scipy.signal._sigtools import _linear_filter\n"
        "assert _linear_filter is response._linear_filter\n"
        "floor.test_compiled_filter_is_lfilter_on_the_grid_filters()\n"
        "floor.test_history_matches_lfilter()\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"


def test_unlocatable_extension_falls_back_to_the_package_import():
    # With scipy's directory not found, the binding takes the ordinary
    # import and gets the same compiled function.
    out = _run(
        "import importlib.util, sys\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *a: None if name == 'scipy' else find_spec(name, *a)\n"
        "from repro.spectra import response\n"
        "importlib.util.find_spec = find_spec\n"
        "assert response._locate_sigtools() is not None\n"
        "assert 'scipy.signal' in sys.modules\n"
        "assert response._linear_filter is sys.modules['scipy.signal._sigtools']._linear_filter\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"
