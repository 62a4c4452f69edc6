"""Tests for the task-graph builder, ablations and measured harness."""

import pytest

from repro.bench.ablation import (
    amdahl_bound,
    sweep_io_capacity,
    sweep_staging_cost,
    sweep_workers,
)
from repro.bench.costmodel import DEFAULT_COST_MODEL
from repro.bench.taskgraphs import build_sim_tasks, simulate_implementation
from repro.bench.workloads import (
    EventWorkload,
    paper_workloads,
    scaled_workload,
    workload_for,
)
from repro.engine import policy_by_name, policy_names
from repro.errors import CalibrationError
from repro.parallel.simulate import simulate_task_graph, PAPER_MACHINE
from repro.synth.events import PAPER_EVENTS


@pytest.fixture(scope="module")
def small_workload():
    return EventWorkload("W", "w", (10_000, 14_000, 12_000))


class TestWorkloads:
    def test_paper_workloads_match_catalog(self):
        workloads = paper_workloads()
        assert [w.n_files for w in workloads] == [5, 5, 9, 15, 18, 19]
        assert [w.total_points for w in workloads] == [
            56_000, 115_000, 145_000, 309_000, 361_000, 384_000
        ]

    def test_scaled_workload_preserves_structure(self):
        event = PAPER_EVENTS[0]
        scaled = scaled_workload(event, 0.1)
        assert scaled.n_files == event.n_files
        assert scaled.total_points < event.total_points

    def test_scaled_workload_floor(self):
        event = PAPER_EVENTS[0]
        scaled = scaled_workload(event, 0.0001, min_points=400)
        assert min(scaled.file_points) == 400

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            scaled_workload(PAPER_EVENTS[0], 0.0)

    def test_workload_for(self):
        w = workload_for(PAPER_EVENTS[2])
        assert w.event_id == "EV-JUL19A"
        assert w.n_files == 9


class TestGraphBuilder:
    def test_sequential_graph_is_a_chain(self, small_workload):
        tasks = build_sim_tasks("seq-original", small_workload)
        assert len(tasks) == 20
        for prev, task in zip(tasks, tasks[1:]):
            assert task.deps == (prev.name,)

    def test_optimized_graph_has_seventeen(self, small_workload):
        assert len(build_sim_tasks("seq-optimized", small_workload)) == 17

    def test_full_graph_expands_loops(self, small_workload):
        tasks = build_sim_tasks("full-parallel", small_workload)
        names = [t.name for t in tasks]
        # Stage IX expands to one task per trace (3 per station).
        assert sum(1 for n in names if n.startswith("IX.P16.")) == 9
        # Temp-folder stages carry staging and exe tasks.
        assert any(n.startswith("IV.in.") for n in names)
        assert any(n.startswith("IV.exe.") for n in names)
        assert any(n.startswith("IV.out.") for n in names)

    def test_graphs_simulate_cleanly(self, small_workload):
        for impl in ("seq-original", "seq-optimized", "partial-parallel", "full-parallel"):
            tasks = build_sim_tasks(impl, small_workload)
            result = simulate_task_graph(tasks, PAPER_MACHINE)
            assert result.makespan_s > 0

    def test_unknown_implementation_rejected(self, small_workload):
        with pytest.raises(CalibrationError):
            build_sim_tasks("quantum", small_workload)

    def test_sequential_makespan_equals_cost_sum(self, small_workload):
        from repro.core.registry import ORIGINAL_ORDER

        expected = DEFAULT_COST_MODEL.sequential_total(ORIGINAL_ORDER, small_workload)
        result = simulate_implementation("seq-original", small_workload)
        assert result.makespan_s == pytest.approx(expected, rel=1e-9)

    def test_parallel_beats_sequential(self, small_workload):
        seq = simulate_implementation("seq-optimized", small_workload).makespan_s
        full = simulate_implementation("full-parallel", small_workload).makespan_s
        assert full < seq

    @pytest.mark.parametrize(
        "policy", [name for name in policy_names() if name != "incremental"]
    )
    def test_every_plan_of_process_tasks_simulates(self, small_workload, policy):
        # Stages are the plan's region labels, the keys the engine's
        # PipelineResult.stage_durations uses.
        _, regions = policy_by_name(policy).plan()
        tasks = build_sim_tasks(policy, small_workload)
        assert {t.stage for t in tasks} - {"driver"} <= {r.label for r in regions}
        assert simulate_task_graph(tasks, PAPER_MACHINE).makespan_s > 0

    def test_fused_regions_are_simulated_stages(self, small_workload):
        stages = {t.stage for t in build_sim_tasks("full-parallel-fused", small_workload)}
        assert {"II+III", "VI+VII", "X+XI"} <= stages

    def test_opaque_custom_task_rejected_by_name(self, small_workload):
        with pytest.raises(CalibrationError, match="custom task 'P0'"):
            build_sim_tasks("incremental", small_workload)

    def test_driver_tasks_present_only_in_parallel(self, small_workload):
        seq_names = {t.stage for t in build_sim_tasks("seq-original", small_workload)}
        par_names = {t.stage for t in build_sim_tasks("full-parallel", small_workload)}
        assert "driver" not in seq_names
        assert "driver" in par_names


class TestAblations:
    def test_worker_sweep_monotone_then_flat(self):
        points = sweep_workers(counts=(1, 2, 4, 8, 12), workload=paper_workloads()[0])
        speedups = [p.speedup for p in points]
        assert speedups[0] == pytest.approx(1.0, abs=0.25)
        # Broadly increasing; adding slow E-core/HT workers to a greedy
        # schedule may cost a few percent locally (real LPT behaviour).
        assert all(b >= a - 0.15 for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] > 2.0

    def test_more_io_capacity_helps(self):
        points = sweep_io_capacity(capacities=(1.0, 4.0), workload=paper_workloads()[0])
        assert points[1].speedup > points[0].speedup

    def test_staging_cost_hurts(self):
        points = sweep_staging_cost(multipliers=(0.0, 4.0), workload=paper_workloads()[0])
        assert points[0].speedup > points[1].speedup

    def test_machine_presets(self):
        from repro.bench.ablation import sweep_machines

        workload = paper_workloads()[0]
        full = sweep_machines(workload=workload)
        assert set(full) == {"paper-i5", "office-desktop", "workstation-16c", "server-32c"}
        # More machine beats less machine for the barriered version...
        assert full["workstation-16c"].speedup > full["paper-i5"].speedup
        assert full["paper-i5"].speedup > full["office-desktop"].speedup
        # ...but saturates near the critical-path bound.
        from repro.bench.ablation import amdahl_bound

        bound = amdahl_bound(workload=workload)
        assert full["server-32c"].speedup < bound * 1.01
        # The wavefront keeps scaling where the barriers stall.
        wavefront = sweep_machines(workload=workload, implementation="wavefront-parallel")
        assert wavefront["server-32c"].speedup > full["server-32c"].speedup

    def test_amdahl_bound_exceeds_machine_speedup(self):
        workload = paper_workloads()[0]
        bound = amdahl_bound(workload=workload)
        actual = (
            simulate_implementation("seq-original", workload).makespan_s
            / simulate_implementation("full-parallel", workload).makespan_s
        )
        assert bound > actual
