"""Happens-before cross-check: recorded runs agree with the static proof.

An audited engine run records its region plan alongside the access
logs.  The auditor reconstructs a vector-clock ordering from that plan
(one epoch per region) and must find **zero** recorded access pairs
the static race proof claimed impossible — on both the thread and the
process backend, for the DAG policy and the fused policy.  Synthetic
``.audit`` fixtures then pin down the violation and degraded paths.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import audit_findings, happens_before_findings
from repro.analysis.model import ERROR, INFO, WARNING

from tests.conftest import make_context

POLICIES = ("dag-parallel", "full-parallel-fused")


def _run_audited(policy_name: str, backend: str, root: Path, dataset: Path):
    from repro.core.context import ParallelSettings
    from repro.engine import EnginePipeline
    from repro.engine.policy import resolve_policy

    ctx = make_context(
        root, parallel=ParallelSettings(backend, num_workers=2)
    )
    for src in dataset.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    ctx.audit = True
    EnginePipeline(resolve_policy(policy_name)).run(ctx)
    return ctx


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("policy_name", POLICIES)
def test_audited_engine_run_is_happens_before_clean(
    policy_name: str, backend: str, tmp_path: Path, tiny_dataset_dir: Path
):
    ctx = _run_audited(policy_name, backend, tmp_path / "ws", tiny_dataset_dir)
    root = ctx.workspace.root

    findings = happens_before_findings(root)
    violations = [f for f in findings if f.severity in (ERROR, WARNING)]
    assert violations == [], [f.render() for f in violations]
    assert any(
        f.severity == INFO and "happens-before clean" in f.message
        for f in findings
    )

    # The classic audit (undeclared accesses, conflict pairs) must stay
    # clean too now that it orders events by the recorded plan.
    stations = sorted(p.stem for p in ctx.workspace.input_dir.glob("*.v1"))
    problems = [
        f
        for f in audit_findings(root, stations)
        if f.severity in (ERROR, WARNING)
    ]
    assert problems == [], [f.render() for f in problems]


def test_recorded_plan_round_trips(tmp_path: Path, tiny_dataset_dir: Path):
    from repro.core.auditing import load_plan

    ctx = _run_audited("dag-parallel", "thread", tmp_path / "ws", tiny_dataset_dir)
    plan = load_plan(ctx.workspace.root)
    assert plan is not None and plan["policy"] == "dag-parallel"
    planned = [task for region in plan["regions"] for task in region["tasks"]]
    assert "P0" in planned and len(planned) == len(set(planned))


# -- synthetic fixtures ------------------------------------------------------


def _synthetic_audit(
    root: Path, plan: dict | None, events: list[dict]
) -> Path:
    audit_dir = root / ".audit"
    audit_dir.mkdir(parents=True)
    if plan is not None:
        (audit_dir / "plan.json").write_text(json.dumps(plan))
    lines = "".join(json.dumps(event) + "\n" for event in events)
    (audit_dir / "events-0.jsonl").write_text(lines)
    return root


def _event(process: str, op: str, path: str, t: float, unit: str = "-") -> dict:
    return {
        "path": path,
        "op": op,
        "process": process,
        "unit": unit,
        "worker": "w0",
        "t": t,
    }


def test_same_epoch_write_write_is_a_violation(tmp_path: Path):
    root = _synthetic_audit(
        tmp_path / "ws",
        {"policy": "synthetic", "regions": [{"label": "I", "tasks": ["a", "b"]}]},
        [
            _event("a", "write", "work/flags.dat", 1.0),
            _event("b", "write", "work/flags.dat", 2.0),
        ],
    )
    findings = happens_before_findings(root)
    errors = [f for f in findings if f.severity == ERROR]
    assert len(errors) == 1
    message = errors[0].message
    assert "happens-before violation" in message
    assert "work/flags.dat" in message
    assert "a[-] write" in message and "b[-] write" in message


def test_cross_epoch_accesses_are_ordered(tmp_path: Path):
    root = _synthetic_audit(
        tmp_path / "ws",
        {
            "policy": "synthetic",
            "regions": [
                {"label": "I", "tasks": ["a"]},
                {"label": "II", "tasks": ["b"]},
            ],
        },
        [
            _event("a", "write", "work/flags.dat", 1.0),
            _event("b", "write", "work/flags.dat", 2.0),
        ],
    )
    findings = happens_before_findings(root)
    assert [f.severity for f in findings] == [INFO]


def test_same_epoch_reads_do_not_conflict(tmp_path: Path):
    root = _synthetic_audit(
        tmp_path / "ws",
        {"policy": "synthetic", "regions": [{"label": "I", "tasks": ["a", "b"]}]},
        [
            _event("a", "read", "work/flags.dat", 1.0),
            _event("b", "read", "work/flags.dat", 2.0),
        ],
    )
    findings = happens_before_findings(root)
    assert [f.severity for f in findings] == [INFO]


def test_same_task_distinct_units_still_conflict(tmp_path: Path):
    # Two keyed units of one loop task touching the same path is a real
    # intra-task race; only same-unit or driver accesses commute.
    root = _synthetic_audit(
        tmp_path / "ws",
        {"policy": "synthetic", "regions": [{"label": "I", "tasks": ["a"]}]},
        [
            _event("a", "write", "work/out.dat", 1.0, unit="S1"),
            _event("a", "write", "work/out.dat", 2.0, unit="S2"),
        ],
    )
    findings = happens_before_findings(root)
    assert [f.severity for f in findings] == [ERROR]


def test_missing_plan_degrades_to_warning(tmp_path: Path):
    root = _synthetic_audit(
        tmp_path / "ws",
        None,
        [_event("a", "write", "work/flags.dat", 1.0)],
    )
    findings = happens_before_findings(root)
    assert [f.severity for f in findings] == [WARNING]
    assert "no recorded plan" in findings[0].message


def test_events_outside_the_plan_are_ignored(tmp_path: Path):
    root = _synthetic_audit(
        tmp_path / "ws",
        {"policy": "synthetic", "regions": [{"label": "I", "tasks": ["a"]}]},
        [
            _event("a", "write", "work/flags.dat", 1.0),
            _event("P99", "write", "work/flags.dat", 2.0),
        ],
    )
    findings = happens_before_findings(root)
    assert [f.severity for f in findings] == [INFO]
