"""Tests for workspace verification and the batch/bulletin subsystem."""

import pytest

from repro.core import Workspace
from repro.core.batch import BatchRunner, Bulletin, summarize_event_run
from repro.core.context import ParallelSettings
from repro.core.verify import (
    VerificationReport,
    compare_workspaces,
    verify_inventory,
    workspace_digests,
)
from repro.engine import policy_by_name
from repro.errors import PipelineError
from repro.synth.events import EventSpec
from tests.conftest import TINY_EVENT, tiny_response_config


class TestVerifyInventory:
    def test_completed_run_verifies(self, completed_run):
        report = verify_inventory(completed_run.workspace)
        assert report.ok, report.render()
        assert report.checked > 0

    def test_missing_artifact_detected(self, completed_run, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(completed_run.workspace.root, clone)
        ws = Workspace(clone)
        victim = ws.work_dir / "ST01l.r"
        if not victim.exists():
            victim = next(ws.work_dir.glob("*.r"))
        victim.unlink()
        report = verify_inventory(ws)
        assert not report.ok
        assert any(name.endswith(".r") for name in report.missing)

    def test_unexpected_artifact_detected(self, completed_run, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(completed_run.workspace.root, clone)
        ws = Workspace(clone)
        (ws.work_dir / "stray.tmp").write_text("x")
        report = verify_inventory(ws)
        assert not report.ok
        assert "stray.tmp" in report.unexpected

    def test_inventory_lists_names_without_reading_artifacts(
        self, completed_run, tmp_path, monkeypatch
    ):
        import shutil
        from pathlib import Path

        clone = tmp_path / "clone"
        shutil.copytree(completed_run.workspace.root, clone)
        ws = Workspace(clone)
        next(ws.work_dir.glob("*.r")).unlink()
        (ws.work_dir / "stray.tmp").write_text("x")
        before = verify_inventory(ws)

        def refuse(*args, **kwargs):
            raise AssertionError("verify_inventory read or hashed an artifact")

        monkeypatch.setattr("repro.core.verify.hashlib.sha256", refuse)
        monkeypatch.setattr(Path, "read_bytes", refuse)
        after = verify_inventory(ws)
        assert after.missing == before.missing and len(after.missing) == 1
        assert after.unexpected == before.unexpected == ["stray.tmp"]
        assert after.checked == before.checked and not after.ok

    def test_render_shapes(self):
        ok = VerificationReport(ok=True, checked=10)
        assert "OK" in ok.render()
        bad = VerificationReport(ok=False, missing=["a"], differing=["b"], checked=2)
        text = bad.render()
        assert "missing" in text and "differing" in text

    def test_empty_workspace_rejected(self, tmp_path):
        ws = Workspace(tmp_path / "empty").create()
        with pytest.raises(PipelineError):
            verify_inventory(ws)


class TestCompareWorkspaces:
    def test_identical_runs_compare_equal(self, completed_run, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(completed_run.workspace.root, clone)
        report = compare_workspaces(completed_run.workspace, Workspace(clone))
        assert report.ok

    def test_difference_detected(self, completed_run, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(completed_run.workspace.root, clone)
        ws = Workspace(clone)
        victim = next(ws.work_dir.glob("*.v2"))
        victim.write_text(victim.read_text().replace("E+", "E-", 1))
        report = compare_workspaces(completed_run.workspace, ws)
        assert not report.ok
        assert victim.name in report.differing

    def test_digests_stable(self, completed_run):
        a = workspace_digests(completed_run.workspace)
        b = workspace_digests(completed_run.workspace)
        assert a == b


class TestBatchRunner:
    @pytest.fixture(scope="class")
    def bulletin(self, tmp_path_factory) -> Bulletin:
        events = [
            EventSpec("EV-B1", "2024-01-05", 4.8, 1, 8_000, seed=101),
            EventSpec("EV-B2", "2024-01-19", 5.6, 2, 16_000, seed=102),
        ]
        runner = BatchRunner(
            implementation=policy_by_name("full-parallel").pipeline(),
            root=tmp_path_factory.mktemp("batch"),
            scale=0.2,
            response_config=tiny_response_config(),
            parallel=ParallelSettings(num_workers=2),
        )
        return runner.run(events, title="January 2024 bulletin")

    def test_one_row_per_event(self, bulletin):
        assert [e.event_id for e in bulletin.events] == ["EV-B1", "EV-B2"]

    def test_rows_carry_physics(self, bulletin):
        for ev in bulletin.events:
            assert ev.max_pga_gal > 0
            assert ev.max_sa02_gal > 0
            assert ev.max_arias_cm_s > 0
            assert ev.max_significant_duration_s > 0
            assert ev.processing_time_s > 0
            assert ev.implementation == "full-parallel"

    def test_bigger_event_shakes_harder(self, bulletin):
        by_id = {e.event_id: e for e in bulletin.events}
        assert by_id["EV-B2"].max_pga_gal != by_id["EV-B1"].max_pga_gal

    def test_render_and_write(self, bulletin, tmp_path):
        text = bulletin.render()
        assert "January 2024 bulletin" in text
        assert "EV-B1" in text and "EV-B2" in text
        assert "data points/s" in text
        out = tmp_path / "bulletin.txt"
        bulletin.write(out)
        assert out.read_text().startswith("January 2024 bulletin")

    def test_empty_catalog_rejected(self, tmp_path):
        runner = BatchRunner(
            implementation=policy_by_name("seq-optimized").pipeline(), root=tmp_path
        )
        with pytest.raises(PipelineError):
            runner.run([])

    def test_summarize_requires_finished_run(self, tmp_path):
        from repro.core import RunContext
        from repro.core.runner import PipelineResult
        from repro.errors import MissingArtifactError

        ctx = RunContext.for_directory(tmp_path / "unrun")
        (ctx.workspace.input_dir / "ST01.v1").write_text("stub")
        with pytest.raises(MissingArtifactError):
            summarize_event_run(
                ctx, TINY_EVENT, PipelineResult(implementation="x", total_s=1.0)
            )
