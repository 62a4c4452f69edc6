"""Tests for the MPI-style cluster policy."""

import shutil

import pytest

from repro.core.context import ParallelSettings
from repro.engine import ClusterPolicy, policy_by_name
from tests.conftest import hash_tree, make_context


@pytest.fixture(scope="module")
def cluster_and_reference(tmp_path_factory, tiny_dataset_dir):
    runs = {}
    for name, policy in (
        ("reference", policy_by_name("seq-optimized")),
        ("cluster", ClusterPolicy(2)),
    ):
        root = tmp_path_factory.mktemp(f"cl-{name}") / "ws"
        ctx = make_context(root, parallel=ParallelSettings(num_workers=2))
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ctx.workspace.input_dir / src.name)
        result = policy.run(ctx)
        runs[name] = (ctx, result)
    return runs


@pytest.mark.slow
class TestClusterImplementation:
    def test_byte_identical_to_sequential(self, cluster_and_reference):
        ref_ctx, _ = cluster_and_reference["reference"]
        cl_ctx, _ = cluster_and_reference["cluster"]
        ref = hash_tree(ref_ctx.workspace.work_dir)
        cl = hash_tree(cl_ctx.workspace.work_dir)
        assert set(ref) == set(cl)
        assert not [k for k in ref if ref[k] != cl[k]]

    def test_phase_timings(self, cluster_and_reference):
        _, result = cluster_and_reference["cluster"]
        assert set(result.stage_durations) == {"prologue", "ranks", "epilogue"}
        assert result.stage_durations["ranks"] > 0

    def test_registered_by_name(self):
        assert isinstance(policy_by_name("cluster-parallel"), ClusterPolicy)

    def test_single_rank_inline(self, tmp_path, tiny_dataset_dir):
        ctx = make_context(tmp_path / "one")
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ctx.workspace.input_dir / src.name)
        result = ClusterPolicy(1).run(ctx)
        assert result.total_s > 0
        from repro.core.verify import verify_inventory

        assert verify_inventory(ctx.workspace).ok

    def test_ranks_clamped_to_stations(self, tmp_path, tiny_dataset_dir):
        ctx = make_context(tmp_path / "many")
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ctx.workspace.input_dir / src.name)
        # More ranks than stations must not deadlock or fail.
        result = ClusterPolicy(16).run(ctx)
        assert result.total_s > 0
