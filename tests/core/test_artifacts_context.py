"""Unit tests for workspace layout and run configuration."""

import pytest

from repro.core.artifacts import Workspace
from repro.core.context import ParallelSettings, RunContext
from repro.errors import PipelineError
from repro.parallel.backend import Backend


class TestWorkspace:
    def test_create_builds_skeleton(self, tmp_path):
        ws = Workspace(tmp_path / "run").create()
        assert ws.input_dir.is_dir()
        assert ws.work_dir.is_dir()

    def test_path_helpers(self, tmp_path):
        ws = Workspace(tmp_path)
        assert ws.raw_v1("ST01").name == "ST01.v1"
        assert ws.component_v1("ST01", "l").name == "ST01l.v1"
        assert ws.component_v2("ST01", "t").name == "ST01t.v2"
        assert ws.component_f("ST01", "v").name == "ST01v.f"
        assert ws.component_r("ST01", "l").name == "ST01l.r"
        assert ws.gem("ST01", "l", "R", "A").name == "ST01lRA.gem"
        assert ws.plot_accelerograph("ST01").name == "ST01.ps"
        assert ws.plot_fourier("ST01").name == "ST01f.ps"
        assert ws.plot_response("ST01").name == "ST01r.ps"
        assert ws.tmp_dir == ws.work_dir / "tmp"

    def test_require_input_missing_dir(self, tmp_path):
        ws = Workspace(tmp_path / "nothing")
        with pytest.raises(PipelineError):
            ws.require_input()

    def test_require_input_empty(self, tmp_path):
        ws = Workspace(tmp_path).create()
        with pytest.raises(PipelineError):
            ws.require_input()

    def test_input_stations_sorted(self, tmp_path):
        ws = Workspace(tmp_path).create()
        for name in ("B.v1", "A.v1", "C.v1"):
            (ws.input_dir / name).write_text("x")
        assert ws.input_stations() == ["A", "B", "C"]

    def test_final_artifact_inventory(self, tmp_path):
        ws = Workspace(tmp_path)
        names = ws.final_artifact_names(["ST01"])
        # 12 run-level + 3 plots + per-component (3 x (4 files + 6 GEM)).
        assert len(names) == 12 + 3 + 3 * 10
        assert "ST01l.v2" in names
        assert "ST01tR D.gem".replace(" ", "") in names
        assert names == sorted(names)


class TestParallelSettings:
    def test_backend_coercion(self):
        assert ParallelSettings(backend="process").backend is Backend.PROCESS
        assert ParallelSettings("serial").backend is Backend.SERIAL
        assert ParallelSettings().backend is Backend.THREAD

    def test_workers_resolution(self):
        assert ParallelSettings(num_workers=5).workers == 5
        assert ParallelSettings().workers >= 1


class TestRunContext:
    def test_for_directory_creates_workspace(self, tmp_path):
        ctx = RunContext.for_directory(tmp_path / "run")
        assert ctx.workspace.input_dir.is_dir()

    def test_stations_reflect_input(self, tmp_path):
        ctx = RunContext.for_directory(tmp_path / "run")
        (ctx.workspace.input_dir / "Z9.v1").write_text("x")
        assert ctx.stations() == ["Z9"]

    def test_defaults_are_sane(self, tmp_path):
        ctx = RunContext.for_directory(tmp_path / "run")
        assert ctx.taper_fraction == pytest.approx(0.05)
        assert ctx.fourier_max_period == pytest.approx(20.0)
        assert ctx.response_config.combos > 0
