"""Scheduling-policy registry and plan-derivation tests.

The plans must match the derivation ``repro-lint``'s schedule check
trusts: the Fig. 9 stage layout, the declaration-derived layering of
:func:`parallelizable_sets`, and the stage-merge advisories.
"""

from __future__ import annotations

import pytest

from repro.core.dependencies import parallelizable_sets
from repro.core.registry import OPTIMIZED_ORDER, ORIGINAL_ORDER
from repro.core.stages import FULL_PARALLEL_STAGES, PARTIAL_PARALLEL_STAGES, STAGES
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
    policy = policy_by_name(name)
    graph, regions = policy.plan(ctx=None)
    return graph, regions


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
        for region, stage in zip(regions, STAGES):
            if stage.name in PARTIAL_PARALLEL_STAGES and stage.partial_strategy in (
                "tasks",
                "loop",
            ):
                assert region.strategy == stage.partial_strategy
            else:
                assert region.strategy == "seq"

    def test_full_parallel_strategies_match_stage_table(self):
        _, regions = _plan("full-parallel")
        for region, stage in zip(regions, STAGES):
            if stage.name in FULL_PARALLEL_STAGES:
                assert region.strategy == stage.full_strategy
            else:
                assert region.strategy == "seq"

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
        # Plans are built without a run context (the verifier's call).
        graph, regions = policy_by_name(name).plan(None)
        graph.validate_regions(regions)
        assert regions

    def test_plan_types(self):
        graph, regions = _plan("full-parallel")
        assert isinstance(graph, TaskGraph)
        assert isinstance(policy_by_name("full-parallel"), SchedulingPolicy)
