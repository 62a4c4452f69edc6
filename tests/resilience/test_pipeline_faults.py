"""End-to-end fault injection through the real pipeline.

The acceptance bars of the resilience subsystem:

- with no fault plan, runs stay byte-identical to plan-less runs (the
  machinery must be invisible when idle);
- an injected transient recovers via retry without quarantining — and
  without changing a single artifact byte;
- a permanent format fault quarantines exactly the affected station
  while every survivor completes;
- the same plan converges to the same quarantine set, retry counts and
  degraded text on every implementation and backend.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.context import ParallelSettings
from repro.core.verify import compare_workspaces, verify_inventory
from repro.engine import PAPER_POLICIES, policy_by_name
from repro.errors import PipelineError
from repro.observability.metrics import MetricsRegistry
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy

from tests.conftest import make_context

POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.0)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    from repro.synth.dataset import generate_event_dataset
    from repro.synth.events import EventSpec

    directory = tmp_path_factory.mktemp("faults-dataset")
    generate_event_dataset(EventSpec("EV-FLT", "2022-03-04", 5.2, 3, 24_000, seed=77), directory)
    return directory


def run_with(tmp_path, dataset_dir, impl_name, plan, backend="thread"):
    ctx = make_context(
        tmp_path / "ws",
        parallel=ParallelSettings(backend, num_workers=2),
    )
    for src in dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    ctx.metrics = MetricsRegistry()
    ctx.resilience = plan
    result = policy_by_name(impl_name).run(ctx)
    return ctx, result


class TestCleanPath:
    def test_empty_plan_changes_nothing(self, tmp_path, dataset_dir):
        """Resilience enabled but fault-free == resilience absent."""
        ctx_plain, result_plain = run_with(
            tmp_path / "plain", dataset_dir, "seq-optimized", None
        )
        ctx_armed, result_armed = run_with(
            tmp_path / "armed", dataset_dir, "seq-optimized",
            FaultPlan(seed=3, policy=POLICY),
        )
        assert result_plain.quarantine == []
        assert result_armed.quarantine == []
        report = compare_workspaces(ctx_plain.workspace, ctx_armed.workspace)
        assert report.ok, report.render()
        # The marker directory is torn down with the run.
        assert not (ctx_armed.workspace.root / "resilience").exists()

    def test_no_plan_leaves_no_resilience_metrics(self, tmp_path, dataset_dir):
        ctx, _ = run_with(tmp_path, dataset_dir, "full-parallel", None)
        assert ctx.metrics.total("repro_faults_injected_total") == 0
        assert ctx.metrics.total("repro_retries_total") == 0
        assert ctx.metrics.total("repro_quarantined_records_total") == 0


class TestTransientRecovery:
    def test_recovers_without_quarantine_or_artifact_change(self, tmp_path, dataset_dir):
        plan = FaultPlan(
            seed=5,
            faults=(FaultSpec(kind="transient", target="P4:ST01l", count=2),),
            policy=POLICY,
        )
        ctx_clean, _ = run_with(tmp_path / "clean", dataset_dir, "seq-optimized", None)
        ctx_faulty, result = run_with(tmp_path / "faulty", dataset_dir, "seq-optimized", plan)
        assert result.quarantine == []
        assert ctx_faulty.metrics.total("repro_faults_injected_total") == 2
        assert ctx_faulty.metrics.total("repro_retries_total") == 2
        # Recovery must leave no trace in the artifacts.
        report = compare_workspaces(ctx_clean.workspace, ctx_faulty.workspace)
        assert report.ok, report.render()


class TestPermanentFault:
    def test_format_fault_quarantines_exactly_the_station(self, tmp_path, dataset_dir):
        plan = FaultPlan(
            seed=5,
            faults=(FaultSpec(kind="truncate-v1", target="ST02l.v1"),),
            policy=POLICY,
        )
        ctx, result = run_with(tmp_path, dataset_dir, "seq-optimized", plan)
        assert [r.record for r in result.quarantine] == ["ST02"]
        assert result.quarantine[0].kind == "format"
        # Survivors completed their full inventory; the victim left nothing.
        survivors = [s for s in ctx.stations() if s != "ST02"]
        report = verify_inventory(ctx.workspace, stations=survivors)
        assert report.ok, report.render()
        leftovers = [p.name for p in ctx.workspace.work_dir.glob("ST02*")]
        assert leftovers == []
        assert ctx.metrics.total("repro_quarantined_records_total") == 1

    def test_exhausted_transient_quarantines(self, tmp_path, dataset_dir):
        plan = FaultPlan(
            seed=5,
            faults=(FaultSpec(kind="transient", target="P7:ST03l", count=5),),
            policy=POLICY,
        )
        _, result = run_with(tmp_path, dataset_dir, "seq-optimized", plan)
        (report,) = result.quarantine
        assert report.record == "ST03"
        assert report.kind == "exhausted-retries"
        assert report.attempts == POLICY.max_attempts

    def test_config_fault_is_event_fatal(self, tmp_path, dataset_dir):
        plan = FaultPlan(
            seed=5,
            faults=(FaultSpec(kind="drop-config", target="P4"),),
            policy=POLICY,
        )
        with pytest.raises(PipelineError):
            run_with(tmp_path, dataset_dir, "seq-optimized", plan)


CONVERGENCE_PLAN = FaultPlan(
    seed=17,
    faults=(
        FaultSpec(kind="truncate-v1", target="ST01l.v1"),
        FaultSpec(kind="transient", target="P7:ST02t", count=1),
        FaultSpec(kind="crash", target="P3:ST03", count=5),
    ),
    policy=POLICY,
)


class TestMatrixConvergence:
    def outcome(self, tmp_path, dataset_dir, impl_name, backend):
        ctx, result = run_with(tmp_path, dataset_dir, impl_name, CONVERGENCE_PLAN, backend)
        reports = sorted(result.quarantine, key=lambda r: r.record)
        return (
            tuple((r.record, r.process, r.kind, r.error, r.attempts) for r in reports),
            ctx.metrics.total("repro_retries_total"),
            ctx.metrics.total("repro_faults_injected_total"),
            "\n".join(r.describe() for r in reports),
        )

    @pytest.mark.parametrize("impl_name", PAPER_POLICIES)
    @pytest.mark.parametrize(
        "backend",
        ["thread", pytest.param("process", marks=pytest.mark.slow)],
    )
    def test_same_plan_same_outcome(self, tmp_path, dataset_dir, impl_name, backend):
        got = self.outcome(tmp_path / "got", dataset_dir, impl_name, backend)
        signature, retries, faults, degraded = got
        # ST01: format-quarantined at P4.  ST02: transient recovered.
        # ST03: crash fired 3x (attempt-capped), exhausted at P3.
        assert signature == (
            ("ST01", "P4", "format", "HeaderError", 1),
            ("ST03", "P3", "worker-crash", "WorkerCrashError", 3),
        )
        assert retries == 3  # 1 transient + 2 crash resubmissions
        assert faults == 5  # 1 file + 1 transient + 3 crash firings
        assert "ST01" in degraded and "ST03" in degraded and "ST02" not in degraded
