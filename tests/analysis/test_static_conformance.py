"""Static conformance: process code vs registry declarations."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis import analyze_processes, conformance_findings
from repro.analysis.lint import main_lint
from repro.analysis.model import ERROR
from repro.analysis.static_conformance import default_processes_dir
from repro.core.registry import PROCESSES


class TestCleanTree:
    def test_no_findings_on_repo(self):
        assert conformance_findings() == []

    def test_every_process_analyzed(self):
        summaries = analyze_processes()
        assert sorted(summaries) == sorted(PROCESSES)

    def test_extraction_matches_declarations_exactly(self):
        for pid, summary in analyze_processes().items():
            spec = PROCESSES[pid]
            assert summary.reads == {ref.identity for ref in spec.reads}, spec.label
            assert summary.writes == {ref.identity for ref in spec.writes}, spec.label
            assert not summary.unknowns, spec.label


@pytest.fixture()
def seeded_violation_dir(tmp_path: Path) -> Path:
    """A copy of the process modules with an undeclared write in P2."""
    target = tmp_path / "processes"
    target.mkdir()
    for src in sorted(default_processes_dir().glob("*.py")):
        shutil.copy2(src, target / src.name)
    p02 = target / "p02_params.py"
    p02.write_text(
        p02.read_text()
        + "\n\n"
        + "def run_p02(ctx, _original=run_p02):\n"
        + "    _original(ctx)\n"
        + '    ctx.workspace.work("maxvals.dat").write_text("boom")\n'
    )
    return target


class TestSeededViolation:
    def test_undeclared_write_is_error(self, seeded_violation_dir: Path):
        findings = conformance_findings(seeded_violation_dir)
        errors = [f for f in findings if f.severity == ERROR]
        assert any(
            f.process == "P2" and "maxvals" in f.message and "write" in f.message
            for f in errors
        ), [f.render() for f in findings]

    def test_cli_exit_codes(self, seeded_violation_dir: Path, capsys):
        assert main_lint(["--strict"]) == 0
        capsys.readouterr()
        assert main_lint(["--strict", "--processes-dir", str(seeded_violation_dir)]) == 1
        out = capsys.readouterr().out
        assert "maxvals" in out

    def test_module_run_imports_the_cli_once(self):
        # The package does not import its CLI module, so running it as
        # __main__ raises no "found in sys.modules" RuntimeWarning.
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.analysis.lint", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_cli_json_output(self, seeded_violation_dir: Path, capsys):
        import json

        assert main_lint(["--json", "--processes-dir", str(seeded_violation_dir)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert any(f["severity"] == "error" for f in findings)
