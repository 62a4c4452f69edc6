"""Tests for the incremental (make-style) policy."""

import shutil

import pytest

from repro.core.registry import OPTIMIZED_ORDER
from repro.engine import policy_by_name
from tests.conftest import hash_tree, make_context


@pytest.fixture()
def incr_ctx(tmp_path, tiny_dataset_dir):
    ctx = make_context(tmp_path / "ws")
    for src in tiny_dataset_dir.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    return ctx


class TestIncrementalRunner:
    def test_first_run_executes_everything(self, incr_ctx):
        runner = policy_by_name("incremental")
        runner.run(incr_ctx)
        assert runner.executed == list(OPTIMIZED_ORDER)
        assert runner.skipped == []

    def test_plan_after_run_keeps_the_report(self, incr_ctx):
        from repro.analysis.graphlint import verify_policy

        runner = policy_by_name("incremental")
        runner.run(incr_ctx)
        verify_policy(runner)
        runner.plan()
        assert runner.executed == list(OPTIMIZED_ORDER)

    def test_outputs_match_sequential(self, incr_ctx, tmp_path, tiny_dataset_dir):
        policy_by_name("incremental").run(incr_ctx)
        ref_ctx = make_context(tmp_path / "ref")
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ref_ctx.workspace.input_dir / src.name)
        policy_by_name("seq-optimized").run(ref_ctx)
        assert hash_tree(incr_ctx.workspace.work_dir) == hash_tree(
            ref_ctx.workspace.work_dir
        )

    def test_second_run_executes_nothing(self, incr_ctx):
        policy_by_name("incremental").run(incr_ctx)
        runner = policy_by_name("incremental")
        result = runner.run(incr_ctx)
        assert runner.executed == []
        # The twice-written V2 generation (P4, then P13's overwrite)
        # comes back via cheap byte restores, everything else skips.
        assert runner.restored == [4, 13]
        assert sorted(runner.skipped + runner.restored) == sorted(OPTIMIZED_ORDER)
        assert result.total_s < 5.0

    def test_changed_input_reruns(self, incr_ctx):
        policy_by_name("incremental").run(incr_ctx)
        victim = next(incr_ctx.workspace.input_dir.glob("*.v1"))
        text = victim.read_text()
        # Flip one data value (stays parseable).
        victim.write_text(text.replace(" 1.", " 2.", 1))
        runner = policy_by_name("incremental")
        runner.run(incr_ctx)
        # The gatherer's output (the list) is unchanged, but every
        # process reading raw V1 files or their descendants reruns.
        assert 3 in runner.executed
        assert 16 in runner.executed

    def test_deleted_output_restored_from_cache(self, incr_ctx):
        policy_by_name("incremental").run(incr_ctx)
        station = incr_ctx.stations()[0]
        incr_ctx.workspace.plot_fourier(station).unlink()
        runner = policy_by_name("incremental")
        runner.run(incr_ctx)
        # P9's inputs are unchanged, so the deleted plot comes back as
        # a byte restore — no recomputation anywhere.
        assert 9 in runner.restored
        assert runner.executed == []
        assert incr_ctx.workspace.plot_fourier(station).exists()

    def test_cache_miss_falls_back_to_execution(self, incr_ctx):
        import shutil as sh

        policy_by_name("incremental").run(incr_ctx)
        station = incr_ctx.stations()[0]
        incr_ctx.workspace.plot_fourier(station).unlink()
        sh.rmtree(incr_ctx.workspace.root / ".cache" / "p09")
        runner = policy_by_name("incremental")
        runner.run(incr_ctx)
        assert 9 in runner.executed
        assert incr_ctx.workspace.plot_fourier(station).exists()

    def test_rerun_after_delete_restores_identical_bytes(self, incr_ctx):
        policy_by_name("incremental").run(incr_ctx)
        before = hash_tree(incr_ctx.workspace.work_dir)
        station = incr_ctx.stations()[0]
        incr_ctx.workspace.component_r(station, "l").unlink()
        policy_by_name("incremental").run(incr_ctx)
        assert hash_tree(incr_ctx.workspace.work_dir) == before

    def test_config_change_reruns_affected(self, incr_ctx):
        from repro.spectra.response import ResponseSpectrumConfig, default_periods

        policy_by_name("incremental").run(incr_ctx)
        incr_ctx.response_config = ResponseSpectrumConfig(
            periods=default_periods(9), dampings=(0.05,)
        )
        runner = policy_by_name("incremental")
        runner.run(incr_ctx)
        # The config fingerprint changed, so everything re-executes
        # (the fingerprint is global — coarse but safe).
        assert 16 in runner.executed

    @pytest.mark.parametrize(
        "content",
        ["{not json", "[]", '{"0": "x"}', "null"],
        ids=["invalid-json", "list", "non-dict-entry", "null"],
    )
    def test_corrupt_state_file_recovers(self, incr_ctx, content):
        policy_by_name("incremental").run(incr_ctx)
        (incr_ctx.workspace.root / ".pipeline_state.json").write_text(content)
        runner = policy_by_name("incremental")
        runner.run(incr_ctx)
        assert runner.executed == list(OPTIMIZED_ORDER)

    def test_state_outside_work_dir(self, incr_ctx):
        policy_by_name("incremental").run(incr_ctx)
        assert (incr_ctx.workspace.root / ".pipeline_state.json").exists()
        assert not (incr_ctx.workspace.work_dir / ".pipeline_state.json").exists()
