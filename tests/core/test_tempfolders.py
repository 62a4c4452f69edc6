"""Tests for the temp-folder staging engine (stages IV/V/VIII)."""

import pytest

from repro.core.processes.p01_gather import run_p01
from repro.core.processes.p02_params import run_p02
from repro.core.processes.p03_separate import run_p03, stations_from_list
from repro.core.tempfolders import StagedInstance, run_staged_instance
from repro.engine.executor import correction_instance, fourier_instance
from repro.errors import MissingArtifactError, PipelineError


@pytest.fixture()
def prepared(workspace_with_input):
    """A workspace advanced to the point where stage IV can run."""
    ctx = workspace_with_input
    run_p01(ctx)
    run_p02(ctx)
    run_p03(ctx)
    return ctx


class TestStagedInstance:
    def test_folder_name(self):
        inst = StagedInstance("IV", 3, "correction", (), ())
        assert inst.folder_name == "iv_0003"

    def test_correction_instance_layout(self):
        inst = correction_instance("IV", 0, "ST01", "filter.par")
        assert "filter.par" in inst.inputs
        assert "ST01l.v1" in inst.inputs
        assert "ST01t.v2" in inst.outputs
        assert "ST01v.max" in inst.outputs
        assert dict(inst.config)["params"] == "filter.par"


class TestRunStagedInstance:
    def test_correction_roundtrip(self, prepared):
        ctx = prepared
        station = stations_from_list(ctx.workspace)[0]
        inst = correction_instance("IV", 0, station, "filter.par")
        run_staged_instance(str(ctx.workspace.root), inst)
        for comp in "ltv":
            assert ctx.workspace.component_v2(station, comp).exists()
            assert (ctx.workspace.work_dir / f"{station}{comp}.max").exists()

    def test_folder_cleaned_up(self, prepared):
        ctx = prepared
        station = stations_from_list(ctx.workspace)[0]
        inst = correction_instance("IV", 0, station, "filter.par")
        run_staged_instance(str(ctx.workspace.root), inst)
        assert not (ctx.workspace.tmp_dir / inst.folder_name).exists()

    def test_matches_in_place_tool_output(self, prepared, tmp_path):
        # Staged execution must produce byte-identical results to
        # running the tool directly in the work directory.
        import shutil

        ctx = prepared
        station = stations_from_list(ctx.workspace)[0]

        # In-place reference in a scratch copy.
        ref = tmp_path / "ref"
        shutil.copytree(ctx.workspace.root, ref)
        from repro.core.tools import TOOL_CONFIG, correction_tool, write_tool_config

        ref_work = ref / "work"
        write_tool_config(ref_work, params="filter.par")
        correction_tool(ref_work)

        inst = correction_instance("IV", 0, station, "filter.par")
        run_staged_instance(str(ctx.workspace.root), inst)
        for comp in "ltv":
            ours = ctx.workspace.component_v2(station, comp).read_bytes()
            theirs = (ref_work / f"{station}{comp}.v2").read_bytes()
            assert ours == theirs

    def test_fourier_instance(self, prepared):
        ctx = prepared
        station = stations_from_list(ctx.workspace)[0]
        run_staged_instance(
            str(ctx.workspace.root), correction_instance("IV", 0, station, "filter.par")
        )
        inst = fourier_instance("V", 0, station, ctx)
        run_staged_instance(str(ctx.workspace.root), inst)
        for comp in "ltv":
            assert ctx.workspace.component_f(station, comp).exists()

    def test_missing_input_raises_and_cleans(self, prepared):
        ctx = prepared
        inst = StagedInstance(
            stage="IV",
            index=9,
            tool="correction",
            inputs=("does-not-exist.v1",),
            outputs=(),
        )
        with pytest.raises(MissingArtifactError):
            run_staged_instance(str(ctx.workspace.root), inst)
        assert not (ctx.workspace.tmp_dir / inst.folder_name).exists()

    def test_unknown_tool_rejected(self, prepared):
        inst = StagedInstance("IV", 0, "mystery", (), ())
        with pytest.raises(PipelineError):
            run_staged_instance(str(prepared.workspace.root), inst)

    def test_missing_output_detected(self, prepared):
        ctx = prepared
        station = stations_from_list(ctx.workspace)[0]
        inst = StagedInstance(
            stage="IV",
            index=1,
            tool="correction",
            inputs=("filter.par", f"{station}l.v1"),
            outputs=("never-produced.v2",),
            config=(("params", "filter.par"),),
        )
        with pytest.raises(PipelineError, match="did not produce"):
            run_staged_instance(str(ctx.workspace.root), inst)


def _digests(directory, pattern):
    import hashlib

    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.glob(pattern))}


class TestStageInByLink:
    """Inputs are hard links into ``work/``; nothing writes through them."""

    def _spy_tool(self, monkeypatch, seen):
        from repro.core import tempfolders

        real = tempfolders.TOOLS["correction"]

        def spy(folder):
            work = folder.parents[1]
            for staged in sorted(folder.glob("*.v1")):
                seen[staged.name] = staged.stat().st_ino == (work / staged.name).stat().st_ino
            return real(folder)

        monkeypatch.setitem(tempfolders.TOOLS, "correction", spy)

    def test_staged_input_shares_the_work_inode(self, prepared, monkeypatch):
        ctx = prepared
        station = stations_from_list(ctx.workspace)[0]
        seen = {}
        self._spy_tool(monkeypatch, seen)
        inputs = _digests(ctx.workspace.work_dir, f"{station}*.v1")
        run_staged_instance(str(ctx.workspace.root), correction_instance("IV", 0, station, "filter.par"))
        assert seen == {f"{station}{c}.v1": True for c in "ltv"}
        # The tool only reads what it shares with work/.
        assert _digests(ctx.workspace.work_dir, f"{station}*.v1") == inputs
        for comp in "ltv":
            assert ctx.workspace.component_v2(station, comp).exists()

    def test_copy_fallback_when_links_fail(self, prepared, monkeypatch, tmp_path):
        import errno
        import shutil

        from repro.core import tempfolders

        ctx = prepared
        station = stations_from_list(ctx.workspace)[0]
        linked = tmp_path / "linked"
        shutil.copytree(ctx.workspace.root, linked)
        run_staged_instance(str(linked), correction_instance("IV", 0, station, "filter.par"))

        def no_links(src, dst):
            raise OSError(errno.EPERM, "hard links unsupported", str(dst))

        copies = []
        real_copy2 = shutil.copy2
        monkeypatch.setattr(tempfolders.os, "link", no_links)
        monkeypatch.setattr(tempfolders.shutil, "copy2", lambda s, d: copies.append(d.name) or real_copy2(s, d))
        seen = {}
        self._spy_tool(monkeypatch, seen)
        run_staged_instance(str(ctx.workspace.root), correction_instance("IV", 0, station, "filter.par"))
        assert sorted(copies) == sorted(["filter.par"] + [f"{station}{c}.v1" for c in "ltv"])
        assert seen == {f"{station}{c}.v1": False for c in "ltv"}
        assert _digests(ctx.workspace.work_dir, f"{station}*") == _digests(linked / "work", f"{station}*")

    def test_stale_folder_of_a_killed_run_is_replaced(self, prepared):
        import os

        ctx = prepared
        station = stations_from_list(ctx.workspace)[0]
        inst = correction_instance("IV", 0, station, "filter.par")
        stale = ctx.workspace.tmp_dir / inst.folder_name
        stale.mkdir(parents=True)
        os.link(ctx.workspace.work_dir / f"{station}l.v1", stale / f"{station}l.v1")
        (stale / f"{station}l.v2").write_text("left over\n")
        run_staged_instance(str(ctx.workspace.root), inst)
        assert not stale.exists()
        assert ctx.workspace.component_v2(station, "l").read_text() != "left over\n"

    @pytest.mark.parametrize("kind", ["garble-v1", "truncate-v1"])
    def test_file_fault_leaves_the_work_file_alone(self, prepared, kind):
        from repro.resilience import FaultPlan, FaultSpec
        from repro.resilience.retry import RetryPolicy
        from repro.core.recording import RunHandle, bound
        from repro.resilience.runtime import disable_resilience, enable_resilience

        ctx = prepared
        root = ctx.workspace.root
        station = stations_from_list(ctx.workspace)[0]
        before = _digests(ctx.workspace.work_dir, "*.v1")
        plan = FaultPlan(
            seed=3,
            faults=(FaultSpec(kind=kind, target=f"{station}l.v1"),),
            policy=RetryPolicy(max_attempts=1, base_delay_s=0.0),
        )
        handle = RunHandle(str(root), faults=enable_resilience(root, plan))
        try:
            with bound(handle):
                reports = run_staged_instance(
                    str(root), correction_instance("IV", 0, station, "filter.par")
                )
        finally:
            disable_resilience(root)
        # The staged copy was corrupted (the record failed its read),
        # the workspace's own artifact was not.
        assert [r.record for r in reports] == [station]
        assert _digests(ctx.workspace.work_dir, "*.v1") == before
