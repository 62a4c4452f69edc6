"""Scheduling-policy registry and plan-derivation tests.

The plans must match the derivation ``repro-lint``'s schedule check
trusts: the Fig. 9 stage layout, the declaration-derived layering of
:func:`parallelizable_sets`, and the stage-merge advisories.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.graphlint import verify_policy
from repro.analysis.model import ERROR, WARNING
from repro.bench.taskgraphs import build_sim_tasks
from repro.bench.workloads import EventWorkload
from repro.core.dependencies import parallelizable_sets
from repro.core.registry import OPTIMIZED_ORDER, ORIGINAL_ORDER
from repro.core.stages import STAGES
from repro.engine import (
    PipelineBuilder,
    SchedulingPolicy,
    TaskGraph,
    pipeline_factory,
    policy_by_name,
    policy_names,
    register_policy,
    resolve_policy,
)
from repro.engine.policy import PAPER_POLICIES, POLICIES, SequentialPolicy
from repro.parallel.simulate import simulate_task_graph
from tests.conftest import hash_tree


class TestRegistry:
    def test_paper_schemes_are_registered(self):
        names = policy_names()
        assert names[: len(PAPER_POLICIES)] == PAPER_POLICIES
        for name in (
            "seq-original",
            "seq-optimized",
            "partial-parallel",
            "full-parallel",
            "full-parallel-fused",
            "dag-parallel",
            "wavefront-parallel",
            "incremental",
        ):
            assert name in names

    def test_unknown_policy_lists_names_and_suggests(self):
        with pytest.raises(ValueError) as excinfo:
            policy_by_name("full-paralel")
        message = str(excinfo.value)
        assert "unknown policy 'full-paralel'" in message
        assert "seq-optimized" in message
        assert "did you mean 'full-parallel'?" in message

    def test_pipeline_factory_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown policy"):
            pipeline_factory("bogus")
        # The MPI-style cluster policy is retired, not aliased.
        with pytest.raises(ValueError, match="unknown policy"):
            policy_by_name("cluster-parallel")
        with pytest.raises(ValueError, match="unknown policy"):
            pipeline_factory("cluster-parallel")
        factory = pipeline_factory("seq-optimized")
        impl = factory()
        assert impl.name == "seq-optimized"
        assert factory() is not impl  # fresh instance per call

    def test_register_policy_extends_the_registry(self):
        name = "test-registered-policy"
        try:
            register_policy(
                name, lambda: SequentialPolicy(OPTIMIZED_ORDER, name=name)
            )
            assert name in policy_names()
            assert policy_by_name(name).name == name
        finally:
            POLICIES.pop(name, None)

    def test_resolve_policy_coercions(self):
        assert resolve_policy("seq-optimized").name == "seq-optimized"
        policy = SequentialPolicy(OPTIMIZED_ORDER, name="mine")
        assert resolve_policy(policy) is policy
        builder = PipelineBuilder(name="built")
        builder.add_process(0)
        assert resolve_policy(builder).name == "built"
        assert resolve_policy(builder.build()).name == "custom"
        with pytest.raises(ValueError, match="policy must be"):
            resolve_policy(42)


def _plan(name: str):
    return policy_by_name(name).plan()


class TestPlans:
    @pytest.mark.parametrize(
        "name",
        [
            "seq-original",
            "seq-optimized",
            "partial-parallel",
            "full-parallel",
            "full-parallel-fused",
            "dag-parallel",
        ],
    )
    def test_every_static_plan_validates(self, name: str):
        graph, regions = _plan(name)
        graph.validate_regions(regions)

    def test_sequential_plans_follow_their_orders(self):
        for name, order in (
            ("seq-original", ORIGINAL_ORDER),
            ("seq-optimized", OPTIMIZED_ORDER),
        ):
            _, regions = _plan(name)
            assert [r.label for r in regions] == [f"P{pid}" for pid in order]
            assert all(len(r.tasks) == 1 for r in regions)

    def test_staged_plans_follow_fig9(self):
        for name in ("partial-parallel", "full-parallel"):
            _, regions = _plan(name)
            assert [r.label for r in regions] == [s.name for s in STAGES]
            for region, stage in zip(regions, STAGES):
                assert region.process_ids == stage.processes

    def test_partial_parallel_strategies_match_stage_table(self):
        _, regions = _plan("partial-parallel")
        assert [r.strategy for r in regions] == [s.partial_strategy for s in STAGES]

    def test_full_parallel_strategies_match_stage_table(self):
        _, regions = _plan("full-parallel")
        assert [r.strategy for r in regions] == [s.full_strategy for s in STAGES]

    def test_fused_plan_executes_the_lint_advisories(self):
        _, regions = _plan("full-parallel-fused")
        assert [r.label for r in regions] == [
            "I", "II+III", "IV", "V", "VI+VII", "VIII", "IX", "X+XI",
        ]
        scheduled = sorted(pid for r in regions for pid in r.process_ids)
        assert scheduled == sorted(OPTIMIZED_ORDER)

    def test_derived_plan_matches_parallelizable_sets(self):
        graph, regions = _plan("dag-parallel")
        layers = parallelizable_sets(OPTIMIZED_ORDER)
        assert len(regions) == len(layers)
        for region, layer in zip(regions, layers):
            assert sorted(region.process_ids) == sorted(layer)
        # The derivation needs fewer barriers than the Fig. 9 plan —
        # the same observation the lint advisory reports.
        assert len(regions) < len(STAGES)

    def test_wavefront_plan_is_a_three_task_chain(self):
        graph, regions = _plan("wavefront-parallel")
        assert [r.label for r in regions] == ["prologue", "wavefront", "epilogue"]
        assert graph.has_edge("prologue", "wavefront")
        assert graph.has_edge("wavefront", "epilogue")
        assert graph.task("wavefront").span_strategy == "loop"

    @pytest.mark.parametrize("name", policy_names())
    def test_every_policy_plan_validates(self, name: str):
        graph, regions = policy_by_name(name).plan()
        graph.validate_regions(regions)
        assert regions

    def test_plan_types(self):
        graph, regions = _plan("full-parallel")
        assert isinstance(graph, TaskGraph)
        assert isinstance(policy_by_name("full-parallel"), SchedulingPolicy)


def _engine_md_authoring_example() -> str:
    """The policy-authoring snippet of docs/engine.md, as written."""
    text = (Path(__file__).parents[2] / "docs" / "engine.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    (snippet,) = [b for b in blocks if "class FusedLayering" in b]
    return snippet


class TestAuthoringExample:
    def test_engine_md_policy_runs_verifies_and_simulates(
        self, workspace_with_input, completed_run
    ):
        namespace: dict = {}
        exec(compile(_engine_md_authoring_example(), "docs/engine.md", "exec"), namespace)
        name = namespace["FusedLayering"].name
        try:
            assert name in policy_names()
            ctx = workspace_with_input
            policy_by_name(name).run(ctx)
            assert hash_tree(ctx.workspace.work_dir) == hash_tree(
                completed_run.workspace.work_dir
            )
            findings = verify_policy(name)
            assert [f for f in findings if f.severity in (ERROR, WARNING)] == []
            workload = EventWorkload("W", "w", (10_000, 14_000))
            assert simulate_task_graph(build_sim_tasks(name, workload)).makespan_s > 0
        finally:
            POLICIES.pop(name, None)
        assert name not in policy_names()
