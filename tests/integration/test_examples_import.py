"""Every example script imports cleanly against the current API.

Each script keeps its work behind a ``__main__`` guard, so importing it
runs nothing; a stale import of a removed name fails here instead of
only when someone runs the example.
"""

from __future__ import annotations

import importlib.util
import warnings
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


def test_examples_found() -> None:
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path: Path) -> None:
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        spec.loader.exec_module(module)
    assert callable(module.main)
