"""Failure injection: broken inputs must surface typed errors, not
silent corruption, in every implementation."""

import shutil

import pytest

from repro.engine import policy_by_name
from repro.errors import FormatError, PipelineError, ReproError
from tests.conftest import make_context


@pytest.fixture()
def ctx_with_data(tmp_path, tiny_dataset_dir):
    ctx = make_context(tmp_path / "ws")
    for src in tiny_dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    return ctx


class TestMissingInput:
    def test_empty_workspace_rejected(self, tmp_path):
        ctx = make_context(tmp_path / "ws")
        with pytest.raises(PipelineError):
            policy_by_name("seq-optimized").run(ctx)

    def test_missing_input_dir_rejected(self, tmp_path):
        from repro.core import RunContext, Workspace

        ctx = make_context(tmp_path / "ws")
        shutil.rmtree(ctx.workspace.input_dir)
        with pytest.raises(PipelineError):
            policy_by_name("seq-optimized").run(ctx)


class TestCorruptInput:
    @pytest.mark.parametrize("policy", ["seq-optimized", "full-parallel"])
    def test_truncated_v1_raises_format_error(self, ctx_with_data, policy):
        victim = next(ctx_with_data.workspace.input_dir.glob("*.v1"))
        text = victim.read_text().splitlines()
        victim.write_text("\n".join(text[: len(text) // 2]) + "\n")
        with pytest.raises(ReproError):
            policy_by_name(policy).run(ctx_with_data)

    def test_garbage_v1_raises_header_error(self, ctx_with_data):
        victim = next(ctx_with_data.workspace.input_dir.glob("*.v1"))
        victim.write_text("this is not a strong-motion record\n")
        with pytest.raises(FormatError):
            policy_by_name("seq-optimized").run(ctx_with_data)

    def test_numeric_corruption_detected(self, ctx_with_data):
        victim = next(ctx_with_data.workspace.input_dir.glob("*.v1"))
        text = victim.read_text()
        # Clobber a data line deep inside the record.
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if i > 20 and "E" in line and ":" not in line:
                lines[i] = line[:10] + "@@@@@" + line[15:]
                break
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            policy_by_name("seq-optimized").run(ctx_with_data)


class TestMidPipelineDamage:
    def test_deleted_intermediate_surfaces_missing_artifact(self, ctx_with_data):
        from repro.core.processes.p01_gather import run_p01
        from repro.core.processes.p02_params import run_p02
        from repro.core.processes.p03_separate import run_p03
        from repro.core.processes.p04_correct import run_p04
        from repro.errors import MissingArtifactError

        ctx = ctx_with_data
        run_p01(ctx)
        run_p02(ctx)
        run_p03(ctx)
        # Sabotage: remove the filter parameters before P4.
        ctx.workspace.work("filter.par").unlink()
        with pytest.raises((MissingArtifactError, PipelineError)):
            run_p04(ctx)

    def test_error_message_names_the_artifact(self, tmp_path):
        from repro.core.processes.p16_response import run_p16
        from repro.errors import MissingArtifactError

        ctx = make_context(tmp_path / "ws")
        with pytest.raises(MissingArtifactError) as err:
            run_p16(ctx)
        assert "response.meta" in str(err.value)
