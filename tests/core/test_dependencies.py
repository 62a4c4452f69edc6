"""Tests for the dependency analysis — the paper's §IV/§V groundwork."""

import pytest

from repro.core.dependencies import (
    Dag,
    build_process_graph,
    parallelizable_sets,
    validate_sequential_order,
)
from repro.core.registry import OPTIMIZED_ORDER, ORIGINAL_ORDER, REDUNDANT_PROCESSES
from repro.core.stages import STAGES
from repro.engine import POLICIES, Region, StagedPolicy, policy_by_name
from repro.errors import DependencyError, StageOrderError


class TestGraphConstruction:
    def test_original_graph_is_dag(self):
        graph = build_process_graph(ORIGINAL_ORDER)
        assert graph.number_of_nodes() == 20

    def test_optimized_graph_is_dag(self):
        graph = build_process_graph(OPTIMIZED_ORDER)
        assert graph.number_of_nodes() == 17

    def test_raw_edges_exist(self):
        graph = build_process_graph(OPTIMIZED_ORDER)
        # P16 reads the V2 files P13 writes.
        assert graph.has_edge(13, 16)
        # P10 reads the F files P7 writes.
        assert graph.has_edge(7, 10)

    def test_war_edge_protects_overwrite(self):
        # P7 reads the first-generation V2 records; P13 overwrites
        # them, so P7 must complete first (anti-dependency).
        graph = build_process_graph(OPTIMIZED_ORDER)
        assert graph.has_edge(7, 13)
        kinds = {graph.edges[e]["kind"] for e in graph.edges if e == (7, 13)}
        assert "war" in kinds or graph.edges[7, 13]["kind"] == "war"

    def test_waw_edge_orders_versions(self):
        graph = build_process_graph(ORIGINAL_ORDER)
        # P4 then P13 write the V2 generations.
        assert graph.has_edge(4, 13)
        # P6 then P15 write the accelerograph plots.
        assert graph.has_edge(6, 15)

    def test_unknown_pid_rejected(self):
        with pytest.raises(DependencyError):
            build_process_graph([0, 1, 99])

    def test_duplicate_pid_rejected(self):
        with pytest.raises(DependencyError):
            build_process_graph([0, 0, 1])


class TestOrderValidation:
    def test_original_numeric_order_is_valid(self):
        validate_sequential_order(ORIGINAL_ORDER)

    def test_optimized_order_is_valid(self):
        validate_sequential_order(OPTIMIZED_ORDER)

    def test_reversed_order_rejected(self):
        with pytest.raises(StageOrderError):
            validate_sequential_order(tuple(reversed(ORIGINAL_ORDER)))

    def test_swapping_dependent_pair_rejected(self):
        order = list(OPTIMIZED_ORDER)
        i16, i13 = order.index(16), order.index(13)
        order[i16], order[i13] = order[i13], order[i16]
        with pytest.raises(StageOrderError):
            validate_sequential_order(order)


class TestStagePlanValidation:
    """The Fig. 9 stage plan is checked by the one barrier-plan check,
    :meth:`TaskGraph.validate_regions`."""

    @staticmethod
    def _plan():
        return StagedPolicy(name="fig9").plan()

    def test_paper_stage_plan_is_valid(self):
        graph, regions = self._plan()
        assert [r.label for r in regions] == [s.name for s in STAGES]
        graph.validate_regions(regions)

    def test_plan_covers_optimized_processes(self):
        members = [pid for stage in STAGES for pid in stage.processes]
        assert sorted(members) == sorted(OPTIMIZED_ORDER)
        assert not set(members) & set(REDUNDANT_PROCESSES)

    def test_dependent_processes_in_one_stage_rejected(self):
        graph, regions = self._plan()
        # P3 separates what P1 gathers: they cannot share a barrier group.
        merged = Region("I+III", regions[0].tasks + regions[2].tasks, "tasks")
        with pytest.raises(StageOrderError, match="must be independent"):
            graph.validate_regions([merged] + regions[1:2] + regions[3:])

    def test_backwards_stage_rejected(self):
        graph, regions = self._plan()
        regions[2], regions[8] = regions[8], regions[2]  # stage IX before its inputs
        with pytest.raises(StageOrderError, match="before its dependency"):
            graph.validate_regions(regions)

    def test_duplicate_membership_rejected(self):
        graph, regions = self._plan()
        regions.append(Region("DUP", regions[8].tasks, "seq"))
        with pytest.raises(StageOrderError, match="more than one region"):
            graph.validate_regions(regions)


class TestDiscovery:
    def test_antichain_layers_partition(self):
        layers = parallelizable_sets(OPTIMIZED_ORDER)
        flat = [pid for layer in layers for pid in layer]
        assert sorted(flat) == sorted(OPTIMIZED_ORDER)

    def test_independent_processes_share_a_layer(self):
        layers = parallelizable_sets(OPTIMIZED_ORDER)
        first = layers[0]
        # The no-input processes are all immediately available.
        assert 0 in first and 2 in first and 11 in first

    def test_layers_respect_dependencies(self):
        layers = parallelizable_sets(OPTIMIZED_ORDER)
        level = {pid: i for i, layer in enumerate(layers) for pid in layer}
        graph = build_process_graph(OPTIMIZED_ORDER)
        for a, b in graph.edges:
            assert level[a] < level[b]


class TestDag:
    def test_cycle_raises_dependency_error(self):
        graph = Dag("toy graph")
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "b")
        with pytest.raises(DependencyError, match="toy graph has a cycle") as info:
            graph.generations()
        assert "('b', 'c')" in str(info.value) and "('c', 'b')" in str(info.value)
        assert "'a'" not in str(info.value)

    def test_readding_an_edge_updates_its_data(self):
        graph = Dag()
        graph.add_edge(1, 2, kind="raw", artifact="v2")
        graph.add_edge(1, 2, kind="war")
        assert graph.edges[1, 2] == {"kind": "war", "artifact": "v2"}
        assert len(graph.edges) == 1 and graph.predecessors(2) == (1,)

    def test_edges_iterate_by_source_then_target_insertion(self):
        graph = Dag()
        for node in (3, 1, 2):
            graph.add_node(node)
        graph.add_edge(2, 9)
        graph.add_edge(1, 9)
        graph.add_edge(3, 2)
        graph.add_edge(1, 2)
        assert list(graph.edges) == [(3, 2), (1, 9), (1, 2), (2, 9)]
        assert graph.nodes == (3, 1, 2, 9) and graph.number_of_nodes() == 4
        assert graph.predecessors(2) == (3, 1)
        assert graph.generations() == [[3, 1], [2], [9]]
        assert graph.has_edge(1, 9) and not graph.has_edge(9, 1)


class TestPinnedLayering:
    """The layerings the paper's reordering and every policy's plan rest on."""

    def test_original_order_layers(self):
        assert parallelizable_sets(ORIGINAL_ORDER) == [
            [0, 1, 2, 11], [3, 5, 8, 17], [4], [6, 7, 12],
            [9, 10, 14], [13], [15, 16], [18, 19],
        ]

    def test_optimized_order_layers(self):
        assert parallelizable_sets(OPTIMIZED_ORDER) == [
            [0, 1, 2, 11], [3, 5, 8, 17], [4], [7],
            [9, 10], [13], [15, 16], [18, 19],
        ]

    SEQ_ORIGINAL = [[f"P{pid}"] for pid in ORIGINAL_ORDER]
    SEQ_OPTIMIZED = [[f"P{pid}"] for pid in OPTIMIZED_ORDER]
    STAGED = [
        ["P0", "P1"], ["P2", "P5", "P8", "P17"], ["P3"], ["P4"], ["P7"], ["P10"],
        ["P11"], ["P13"], ["P16"], ["P19"], ["P9", "P15", "P18"],
    ]
    REGION_TASKS = {
        "seq-original": SEQ_ORIGINAL,
        "seq-optimized": SEQ_OPTIMIZED,
        "incremental": SEQ_OPTIMIZED,
        "partial-parallel": STAGED,
        "full-parallel": STAGED,
        "full-parallel-fused": [
            ["P0", "P1"], ["P2", "P5", "P8", "P17", "P3"], ["P4"], ["P7"],
            ["P10", "P11"], ["P13"], ["P16"], ["P19", "P9", "P15", "P18"],
        ],
        "dag-parallel": [
            ["P0", "P1", "P2", "P11"], ["P3", "P5", "P8", "P17"], ["P4"], ["P7"],
            ["P9", "P10"], ["P13"], ["P15", "P16"], ["P18", "P19"],
        ],
        "wavefront-parallel": [["prologue"], ["wavefront"], ["epilogue"]],
    }

    def test_every_policy_is_pinned(self):
        assert set(self.REGION_TASKS) == set(POLICIES)

    @pytest.mark.parametrize("name", sorted(REGION_TASKS))
    def test_policy_region_tasks(self, name):
        _, regions = policy_by_name(name).plan()
        assert [[t.name for t in r.tasks] for r in regions] == self.REGION_TASKS[name]
