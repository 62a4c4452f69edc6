"""The audit acceptance matrix: every audited policy runs clean.

The paper's four policies, the wavefront and the incremental policy
each run an audited end-to-end pass over the tiny dataset under both
the thread and the process backend; the recorded access logs must
show zero undeclared accesses and zero conflicting concurrent
accesses, and every observed per-process access set must be a subset
of the registry declarations.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis import audit_findings, observed_access
from repro.analysis.graphlint import happens_before_findings
from repro.analysis.model import ERROR, WARNING
from repro.core.registry import PROCESSES
from repro.engine import PAPER_POLICIES, policy_by_name

from tests.conftest import make_context

POLICIES = PAPER_POLICIES + ("wavefront-parallel", "incremental")


def _audited_run(root: Path, name: str, backend: str, tiny_dataset_dir: Path):
    from repro.core.context import ParallelSettings

    ctx = make_context(root, parallel=ParallelSettings(backend, num_workers=2))
    for src in tiny_dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    ctx.audit = True
    policy_by_name(name).run(ctx)
    return ctx


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("impl_name", POLICIES)
def test_audited_run_is_clean(
    impl_name: str, backend: str, tmp_path: Path, tiny_dataset_dir: Path
):
    ctx = _audited_run(tmp_path / "ws", impl_name, backend, tiny_dataset_dir)
    root = ctx.workspace.root
    stations = sorted(p.stem for p in ctx.workspace.input_dir.glob("*.v1"))
    findings = audit_findings(root, stations)
    problems = [f for f in findings if f.severity in (ERROR, WARNING)]
    assert problems == [], [f.render() for f in problems]

    observed = observed_access(root, stations)
    assert observed, "the run recorded no attributed accesses"
    for label, access in observed.items():
        spec = PROCESSES[int(label[1:])]
        assert access.reads <= {ref.identity for ref in spec.reads}, label
        assert access.writes <= {ref.identity for ref in spec.writes}, label


def test_incremental_run_is_happens_before_clean(tmp_path: Path, tiny_dataset_dir: Path):
    # Each digest-checked step is its own epoch of the recorded plan,
    # so every attributed access maps to a task of that plan.
    ctx = _audited_run(tmp_path / "ws", "incremental", "process", tiny_dataset_dir)
    findings = happens_before_findings(ctx.workspace.root)
    problems = [f for f in findings if f.severity in (ERROR, WARNING)]
    assert problems == [], [f.render() for f in problems]
    assert any("happens-before clean" in f.message for f in findings)
