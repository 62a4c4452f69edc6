"""Tests for the wavefront extension (paper §VIII future work)."""

import shutil

import pytest

from repro.core.context import ParallelSettings
from repro.engine import WavefrontPolicy, policy_by_name
from tests.conftest import hash_tree, make_context


@pytest.fixture(scope="module")
def wavefront_and_reference(tmp_path_factory, tiny_dataset_dir):
    runs = {}
    for name in ("seq-optimized", "wavefront-parallel"):
        root = tmp_path_factory.mktemp(f"wf-{name}") / "ws"
        ctx = make_context(root, parallel=ParallelSettings(num_workers=3))
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ctx.workspace.input_dir / src.name)
        result = policy_by_name(name).run(ctx)
        runs[name] = (ctx, result)
    return runs


class TestWavefrontEquality:
    def test_byte_identical_to_sequential(self, wavefront_and_reference):
        ref_ctx, _ = wavefront_and_reference["seq-optimized"]
        wf_ctx, _ = wavefront_and_reference["wavefront-parallel"]
        ref = hash_tree(ref_ctx.workspace.work_dir)
        wf = hash_tree(wf_ctx.workspace.work_dir)
        assert set(ref) == set(wf)
        diffs = [k for k in ref if ref[k] != wf[k]]
        assert not diffs, diffs[:8]

    def test_no_private_params_left(self, wavefront_and_reference):
        wf_ctx, _ = wavefront_and_reference["wavefront-parallel"]
        assert not list(wf_ctx.workspace.work_dir.glob("_wf_*.par"))
        assert not list(wf_ctx.workspace.work_dir.glob("*.max1"))
        assert not list(wf_ctx.workspace.work_dir.glob("*.max2"))
        assert not wf_ctx.workspace.tmp_dir.exists()

    def test_phases_recorded(self, wavefront_and_reference):
        _, result = wavefront_and_reference["wavefront-parallel"]
        assert set(result.stage_durations) == {"prologue", "wavefront", "epilogue"}
        assert result.stage_durations["wavefront"] > 0

    def test_registered_by_name(self):
        assert isinstance(policy_by_name("wavefront-parallel"), WavefrontPolicy)


class TestWavefrontSimulation:
    def test_beats_full_parallel_in_model(self):
        from repro.bench.taskgraphs import simulate_implementation
        from repro.bench.workloads import paper_workloads

        workload = paper_workloads()[-1]
        full = simulate_implementation("full-parallel", workload).makespan_s
        wavefront = simulate_implementation("wavefront-parallel", workload).makespan_s
        assert wavefront < full

    def test_speedup_band_in_model(self):
        from repro.bench.taskgraphs import simulate_implementation
        from repro.bench.workloads import paper_workloads

        workload = paper_workloads()[-1]
        seq = simulate_implementation("seq-original", workload).makespan_s
        wavefront = simulate_implementation("wavefront-parallel", workload).makespan_s
        # Removing the stage barriers roughly doubles the paper's 2.88x.
        assert 4.0 < seq / wavefront < 7.0

    def test_graph_structure(self):
        from repro.bench.taskgraphs import build_sim_tasks
        from repro.bench.workloads import EventWorkload

        workload = EventWorkload("W", "w", (10_000, 12_000))
        tasks = build_sim_tasks("wavefront-parallel", workload)
        names = {t.name for t in tasks}
        # Per-station chains with three concurrent response traces.
        assert "wf.0.p3" in names and "wf.1.p3" in names
        assert {"wf.0.p16.0", "wf.0.p16.1", "wf.0.p16.2"} <= names
        # Exactly one driver charge (the epilogue).
        assert sum(1 for t in tasks if t.stage == "driver") == 1
