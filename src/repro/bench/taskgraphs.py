"""Build simulated task graphs for each pipeline implementation.

The builder translates an implementation's structure — the same stage
plan and strategies executed by :mod:`repro.core` — into
:class:`~repro.parallel.simulate.SimTask` graphs, charging the cost
model's per-process costs plus the parallel-runtime overheads:

- sequential implementations: one task per process, chained;
- task stages (I, II, XI): one task per process, barriers between
  stages, plus task-spawn overhead (P1's directory scan contributes
  per-file subtasks — its parallelization is the paper's §V.1);
- loop stages (III, IX, X, VI): one task per loop item, with per-item
  dispatch overhead and the natural per-file load imbalance;
- temp-folder stages (IV, V, VIII): per instance, a stage-in task, a
  tool task and a stage-out task, plus the sequential EXE-copy chain
  the paper performs "to avoid races".

The per-stage and end-to-end speedups then *emerge* from the machine
model; they are not fitted.
"""

from __future__ import annotations

from repro.bench.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.bench.workloads import EventWorkload
from repro.core.registry import OPTIMIZED_ORDER, ORIGINAL_ORDER, PROCESSES
from repro.core.stages import (
    LOOP,
    SEQ,
    STAGES,
    TASKS,
    TEMP_FOLDERS,
    FULL_PARALLEL_STAGES,
    PARTIAL_PARALLEL_STAGES,
)
from repro.errors import CalibrationError
from repro.parallel.simulate import (
    PAPER_MACHINE,
    SimTask,
    SimulatedMachine,
    SimulationResult,
    simulate_task_graph,
)

#: Maps implementation name -> which stages run parallel (None = all seq).
_PARALLEL_STAGES: dict[str, tuple[str, ...]] = {
    "partial-parallel": PARTIAL_PARALLEL_STAGES,
    "full-parallel": FULL_PARALLEL_STAGES,
}


def _sequential_tasks(order: tuple[int, ...], workload: EventWorkload, model: CostModel) -> list[SimTask]:
    tasks: list[SimTask] = []
    prev: str | None = None
    for pid in order:
        pc = model.process(pid)
        name = f"P{pid}"
        tasks.append(
            SimTask(
                name=name,
                work_s=model.cost(pid, workload),
                io_fraction=pc.io,
                mem_fraction=pc.mem,
                deps=(prev,) if prev else (),
                stage=PROCESSES[pid].label,
            )
        )
        prev = name
    return tasks


def _loop_items(pid: int, workload: EventWorkload, model: CostModel) -> list[float]:
    """Per-item costs of a loop stage's work decomposition."""
    shares = model.file_cost_shares(pid, workload)
    if pid == 3:
        return shares  # one item per station
    if pid == 16:
        # 3N trace items: each station's cost splits across components.
        return [s / 3.0 for s in shares for _ in range(3)]
    if pid == 19:
        # 2N interleaved file items per the legacy list (V2, R per
        # station-component collapses to per-station V2/R batches).
        return [s / 2.0 for s in shares for _ in range(2)]
    raise CalibrationError(f"no loop decomposition for P{pid}")


class _GraphBuilder:
    """Accumulates tasks with stage barriers."""

    def __init__(self) -> None:
        self.tasks: list[SimTask] = []
        self._frontier: tuple[str, ...] = ()

    def add_layer(self, layer: list[SimTask]) -> None:
        """Add tasks that all depend on the previous barrier."""
        self.tasks.extend(
            SimTask(
                name=t.name,
                work_s=t.work_s,
                io_fraction=t.io_fraction,
                mem_fraction=t.mem_fraction,
                deps=tuple(set(t.deps) | set(self._frontier)),
                stage=t.stage,
            )
            for t in layer
        )
        self._frontier = tuple(t.name for t in layer)

    def add_chained(self, layer: list[SimTask]) -> None:
        """Add tasks chained one after another behind the barrier."""
        prev = self._frontier
        out = []
        for t in layer:
            out.append(
                SimTask(
                    name=t.name,
                    work_s=t.work_s,
                    io_fraction=t.io_fraction,
                    mem_fraction=t.mem_fraction,
                    deps=prev,
                    stage=t.stage,
                )
            )
            prev = (t.name,)
        self.tasks.extend(out)
        self._frontier = prev


def _stage_tasks_parallel(
    stage_name: str,
    pids: tuple[int, ...],
    workload: EventWorkload,
    model: CostModel,
) -> list[SimTask]:
    """Task-parallel stage: one task per process (+ spawn overhead).

    P1 (gather input files) decomposes into per-file subtasks — the
    paper parallelized the C++ processes #0/#1 internally (§V.1).
    """
    ovh = model.overheads.task_spawn_s
    out: list[SimTask] = []
    for pid in pids:
        pc = model.process(pid)
        cost = model.cost(pid, workload)
        if pid == 1 and workload.n_files > 1:
            share = cost / workload.n_files
            for i in range(workload.n_files):
                out.append(
                    SimTask(
                        name=f"{stage_name}.P1.{i}",
                        work_s=share + ovh,
                        io_fraction=pc.io,
                        mem_fraction=pc.mem,
                        stage=stage_name,
                    )
                )
        else:
            out.append(
                SimTask(
                    name=f"{stage_name}.P{pid}",
                    work_s=cost + ovh,
                    io_fraction=pc.io,
                    mem_fraction=pc.mem,
                    stage=stage_name,
                )
            )
    return out


def _stage_loop_parallel(
    stage_name: str,
    pid: int,
    workload: EventWorkload,
    model: CostModel,
    builder: _GraphBuilder,
) -> None:
    """Parallel-loop stage: one task per item behind the barrier."""
    ovh = model.overheads.loop_item_s
    pc = model.process(pid)
    if pid == 10:
        # Stage VI: outer station loop sequential, inner 3-component
        # loop parallel — N chained groups of 3 concurrent tasks.
        shares = model.file_cost_shares(pid, workload)
        for i, share in enumerate(shares):
            layer = [
                SimTask(
                    name=f"{stage_name}.P10.{i}.{c}",
                    work_s=share / 3.0 + model.overheads.task_spawn_s,
                    io_fraction=pc.io,
                    mem_fraction=pc.mem,
                    stage=stage_name,
                )
                for c in range(3)
            ]
            builder.add_layer(layer)
        return
    items = _loop_items(pid, workload, model)
    layer = [
        SimTask(
            name=f"{stage_name}.P{pid}.{i}",
            work_s=cost + ovh,
            io_fraction=pc.io,
            mem_fraction=pc.mem,
            stage=stage_name,
        )
        for i, cost in enumerate(items)
    ]
    builder.add_layer(layer)


def _stage_temp_folders(
    stage_name: str,
    pid: int,
    workload: EventWorkload,
    model: CostModel,
    builder: _GraphBuilder,
) -> None:
    """Temp-folder stage: stage-in -> tool -> stage-out per instance,
    plus the sequential EXE-copy chain."""
    ovh = model.overheads
    pc = model.process(pid)
    shares = model.file_cost_shares(pid, workload)
    barrier = builder._frontier
    # Sequential EXE moves: a chain of small tasks; instance i's tool
    # run additionally depends on exe-move i.
    exe_names: list[str] = []
    prev = barrier
    exe_tasks: list[SimTask] = []
    for i in range(workload.n_files):
        name = f"{stage_name}.exe.{i}"
        exe_tasks.append(
            SimTask(
                name=name,
                work_s=ovh.exe_move_s,
                io_fraction=0.9,
                deps=prev,
                stage=stage_name,
            )
        )
        prev = (name,)
        exe_names.append(name)
    builder.tasks.extend(exe_tasks)

    finals: list[str] = []
    for i, (share, points) in enumerate(zip(shares, workload.file_points)):
        staging = 0.5 * (ovh.tool_instance_fixed_s + ovh.tool_staging_per_point_s * points)
        t_in = SimTask(
            name=f"{stage_name}.in.{i}",
            work_s=staging,
            io_fraction=0.95,
            deps=barrier,
            stage=stage_name,
        )
        t_tool = SimTask(
            name=f"{stage_name}.tool.{i}",
            work_s=share,
            io_fraction=pc.io,
            mem_fraction=pc.mem,
            deps=(t_in.name, exe_names[i]),
            stage=stage_name,
        )
        t_out = SimTask(
            name=f"{stage_name}.out.{i}",
            work_s=staging,
            io_fraction=0.95,
            deps=(t_tool.name,),
            stage=stage_name,
        )
        builder.tasks.extend((t_in, t_tool, t_out))
        finals.append(t_out.name)
    builder._frontier = tuple(finals)


def _wavefront_tasks(workload: EventWorkload, model: CostModel) -> list[SimTask]:
    """Task graph of the §VIII wavefront extension.

    The policy's sequential prologue (stages I, II and VII), then one
    dependency chain per station — separation, two staged corrections,
    Fourier, corners, three concurrent response traces, GEM and the
    three plots — with a single epilogue merge, so only one driver
    charge instead of ten.
    """
    builder = _GraphBuilder()
    builder.add_chained([
        SimTask(
            name=f"prologue.P{pid}",
            work_s=model.cost(pid, workload),
            io_fraction=model.process(pid).io,
            mem_fraction=model.process(pid).mem,
            stage="prologue",
        )
        for pid in (0, 1, 2, 5, 8, 17, 11)
    ])
    prologue = builder._frontier
    ovh = model.overheads

    shares = {pid: model.file_cost_shares(pid, workload) for pid in
              (3, 4, 7, 10, 13, 16, 19, 9, 15, 18)}
    finals: list[str] = []
    for i, points in enumerate(workload.file_points):
        staging = 0.5 * (ovh.tool_instance_fixed_s + ovh.tool_staging_per_point_s * points)

        def chain_task(name: str, pid: int, work: float, deps: tuple[str, ...]) -> SimTask:
            pc = model.process(pid)
            return SimTask(
                name=name,
                work_s=work + ovh.loop_item_s,
                io_fraction=pc.io,
                mem_fraction=pc.mem,
                deps=deps,
                stage="wavefront",
            )

        tasks = [
            chain_task(f"wf.{i}.p3", 3, shares[3][i], prologue),
            chain_task(f"wf.{i}.p4", 4, shares[4][i] + 2 * staging, (f"wf.{i}.p3",)),
            chain_task(f"wf.{i}.p7", 7, shares[7][i] + 2 * staging, (f"wf.{i}.p4",)),
            chain_task(f"wf.{i}.p10", 10, shares[10][i], (f"wf.{i}.p7",)),
            chain_task(f"wf.{i}.p13", 13, shares[13][i] + 2 * staging, (f"wf.{i}.p10",)),
        ]
        # Three response traces run as the chain's widest point.
        trace_names = []
        for c in range(3):
            tasks.append(
                chain_task(
                    f"wf.{i}.p16.{c}", 16, shares[16][i] / 3.0, (f"wf.{i}.p13",)
                )
            )
            trace_names.append(f"wf.{i}.p16.{c}")
        tasks.append(chain_task(f"wf.{i}.p19", 19, shares[19][i], tuple(trace_names)))
        tasks.append(chain_task(f"wf.{i}.p9", 9, shares[9][i], (f"wf.{i}.p10",)))
        tasks.append(chain_task(f"wf.{i}.p15", 15, shares[15][i], (f"wf.{i}.p13",)))
        tasks.append(chain_task(f"wf.{i}.p18", 18, shares[18][i], tuple(trace_names)))
        builder.tasks.extend(tasks)
        finals.extend((f"wf.{i}.p19", f"wf.{i}.p9", f"wf.{i}.p15", f"wf.{i}.p18"))

    builder._frontier = tuple(finals)
    builder.add_chained(
        [
            SimTask(
                name="wf.epilogue",
                work_s=model.overheads.driver_cost(workload.total_points),
                io_fraction=0.6,
                stage="driver",
            )
        ]
    )
    return builder.tasks


def build_sim_tasks(
    implementation: str,
    workload: EventWorkload,
    model: CostModel = DEFAULT_COST_MODEL,
) -> list[SimTask]:
    """The simulated task graph of one implementation on one workload."""
    if implementation == "seq-original":
        return _sequential_tasks(ORIGINAL_ORDER, workload, model)
    if implementation == "seq-optimized":
        return _sequential_tasks(OPTIMIZED_ORDER, workload, model)
    if implementation == "wavefront-parallel":
        return _wavefront_tasks(workload, model)
    if implementation not in _PARALLEL_STAGES:
        raise CalibrationError(f"unknown implementation {implementation!r}")
    parallel_stages = _PARALLEL_STAGES[implementation]

    builder = _GraphBuilder()
    for stage in STAGES:
        strategy = (
            stage.partial_strategy
            if implementation == "partial-parallel"
            else stage.full_strategy
        )
        if stage.name not in parallel_stages:
            strategy = SEQ
        if strategy != SEQ:
            pending_driver = True
        else:
            pending_driver = False
        if strategy == SEQ:
            layer = []
            for pid in stage.processes:
                pc = model.process(pid)
                layer.append(
                    SimTask(
                        name=f"{stage.name}.P{pid}",
                        work_s=model.cost(pid, workload),
                        io_fraction=pc.io,
                        mem_fraction=pc.mem,
                        stage=stage.name,
                    )
                )
            builder.add_chained(layer)
        elif strategy == TASKS:
            builder.add_layer(
                _stage_tasks_parallel(stage.name, stage.processes, workload, model)
            )
        elif strategy == LOOP:
            (pid,) = stage.processes
            _stage_loop_parallel(stage.name, pid, workload, model, builder)
        elif strategy == TEMP_FOLDERS:
            (pid,) = stage.processes
            _stage_temp_folders(stage.name, pid, workload, model, builder)
        else:
            raise CalibrationError(f"unknown strategy {strategy!r}")
        if pending_driver:
            # Serial driver work trails every parallel stage (see
            # Overheads.driver_cost); attributed to no stage so the
            # Fig. 11 per-stage spans stay clean.
            builder.add_chained(
                [
                    SimTask(
                        name=f"{stage.name}.driver",
                        work_s=model.overheads.driver_cost(workload.total_points),
                        io_fraction=0.6,
                        stage="driver",
                    )
                ]
            )
    return builder.tasks


def simulate_implementation(
    implementation: str,
    workload: EventWorkload,
    model: CostModel = DEFAULT_COST_MODEL,
    machine: SimulatedMachine = PAPER_MACHINE,
) -> SimulationResult:
    """Simulate one implementation end-to-end on the machine model.

    The sequential implementations run on a single speed-1.0 worker
    (the paper's baseline measures one core); the parallel ones use the
    full machine.
    """
    tasks = build_sim_tasks(implementation, workload, model)
    if implementation.startswith("seq-"):
        machine = SimulatedMachine(
            speeds=(1.0,), io_capacity=machine.io_capacity, mem_capacity=machine.mem_capacity
        )
    return simulate_task_graph(tasks, machine)
