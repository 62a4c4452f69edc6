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


def test_audited_runs_release_their_roots(tmp_path: Path, tiny_dataset_dir: Path, monkeypatch):
    # A finished run unbinds its handle and closes this process's logs
    # for its root; the logs stay on disk for the post-hoc cross-check.
    from repro.analysis.lint import main_lint
    from repro.core import auditing, recording

    monkeypatch.setattr(auditing, "_writers", {})
    roots = [
        _audited_run(tmp_path / f"ws{i}", "seq-optimized", "serial", tiny_dataset_dir).workspace.root
        for i in range(2)
    ]
    assert recording.current() is None
    assert not any(auditing.is_active(root) for root in roots)
    assert auditing._writers == {}
    for root in roots:
        assert main_lint(["--strict", "--audit", str(root)]) == 0


def test_failed_audited_run_releases_its_root(tmp_path: Path):
    from repro.core import auditing, recording
    from repro.errors import PipelineError

    ctx = make_context(tmp_path / "ws")  # no .v1 inputs: the run raises
    ctx.audit = True
    with pytest.raises(PipelineError):
        policy_by_name("seq-optimized").run(ctx)
    assert recording.current() is None
    assert not auditing.is_active(ctx.workspace.root)
    assert (ctx.workspace.root / auditing.AUDIT_DIR).is_dir()


def test_finished_audited_run_is_not_revived(tmp_path: Path, tiny_dataset_dir: Path):
    # A workspace built over a finished audited run is a plain path
    # object: reading through it appends nothing to the run's log.
    from repro.core import auditing
    from repro.core.artifacts import MAXVALS, Workspace

    root = _audited_run(tmp_path / "ws", "seq-optimized", "serial", tiny_dataset_dir).workspace.root
    logs = sorted((root / auditing.AUDIT_DIR).glob("events-*.jsonl"))
    before = [log.read_bytes() for log in logs]
    assert logs and all(before)

    workspace = Workspace(root)
    workspace.work(MAXVALS).read_text()
    assert sorted((root / auditing.AUDIT_DIR).glob("events-*.jsonl")) == logs
    assert [log.read_bytes() for log in logs] == before
    assert not auditing.is_active(root)


def _process_run_accesses(root: Path, tiny_dataset_dir: Path, method: str, monkeypatch):
    """The ``(path, op, process)`` multiset of an audited full-parallel
    process-backend run whose pool starts workers with ``method``."""
    from collections import Counter
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial
    from multiprocessing import get_context

    from repro.core.auditing import iter_events
    from repro.parallel import omp

    with monkeypatch.context() as patch:
        patch.setattr(
            omp, "ProcessPoolExecutor",
            partial(ProcessPoolExecutor, mp_context=get_context(method)),
        )
        _audited_run(root, "full-parallel", "process", tiny_dataset_dir)
    return Counter((e.path, e.op, e.process) for e in iter_events(root))


def test_audit_sees_every_worker_on_forkserver(
    tmp_path: Path, tiny_dataset_dir: Path, monkeypatch
):
    # A forkserver worker inherits nothing from the driver: it learns
    # that the run is audited only from its worker window, whole-process
    # tasks (P0, P1, P2, ...) included.
    forked = _process_run_accesses(tmp_path / "fork", tiny_dataset_dir, "fork", monkeypatch)
    served = _process_run_accesses(
        tmp_path / "forkserver", tiny_dataset_dir, "forkserver", monkeypatch
    )
    assert {process for _, _, process in forked} >= {"P0", "P1", "P2", "P5", "P8", "P17"}
    assert served == forked
