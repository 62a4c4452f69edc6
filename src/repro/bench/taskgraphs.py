"""Simulated task graphs, read from the engine's own plans.

:func:`build_sim_tasks` walks a policy's :meth:`plan` region by region
— the same :class:`~repro.engine.graph.Region` list the engine
executes — and expands each member task into
:class:`~repro.parallel.simulate.SimTask` work by its strategy,
charging the cost model's per-process costs plus the parallel-runtime
overheads:

- a ``seq`` region chains its members, one task per process;
- in any other region every member starts at the region's barrier:
  ``seq`` and ``task`` members are one task each plus task-spawn
  overhead (P1's directory scan splits into per-file subtasks — its
  parallelization is the paper's §V.1); ``loop`` members are one task
  per loop item with per-item dispatch overhead and the natural
  per-file load imbalance; ``temp_folders`` members are, per instance,
  a stage-in, a tool and a stage-out task, plus the sequential
  EXE-copy chain the paper performs "to avoid races";
- serial driver work trails every region that is not ``seq``.

Each task's ``stage`` is its region's label, the key
:attr:`~repro.core.runner.PipelineResult.stage_durations` uses.  Custom
tasks are opaque to the cost model: only the wavefront plan's three
are expanded by hand, and any other raises :class:`CalibrationError`.

The per-stage and end-to-end speedups then *emerge* from the machine
model; they are not fitted.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.bench.workloads import EventWorkload
from repro.engine.graph import CUSTOM, LOOP, SEQ, TASK, TEMP_FOLDERS, Region, Task
from repro.engine.policy import policy_by_name
from repro.errors import CalibrationError
from repro.parallel.simulate import (
    PAPER_MACHINE,
    SimTask,
    SimulatedMachine,
    SimulationResult,
    simulate_task_graph,
)

#: Tasks a member expansion adds, and the names the next barrier waits on.
Expansion = tuple[list[SimTask], tuple[str, ...]]


def _process_task(
    name: str, pid: int, work: float, stage: str, deps: tuple[str, ...], model: CostModel
) -> SimTask:
    pc = model.process(pid)
    return SimTask(
        name=name, work_s=work, io_fraction=pc.io, mem_fraction=pc.mem,
        deps=deps, stage=stage,
    )


def _names(tasks: list[SimTask]) -> tuple[str, ...]:
    return tuple(t.name for t in tasks)


def _seq_chain(
    label: str, names: list[tuple[str, int]], barrier: tuple[str, ...],
    workload: EventWorkload, model: CostModel,
) -> Expansion:
    """Processes run inline one after another behind the barrier."""
    tasks: list[SimTask] = []
    prev = barrier
    for name, pid in names:
        tasks.append(_process_task(name, pid, model.cost(pid, workload), label, prev, model))
        prev = (name,)
    return tasks, prev


def _task_member(
    label: str, pid: int, barrier: tuple[str, ...], workload: EventWorkload, model: CostModel
) -> Expansion:
    """One concurrent task plus spawn overhead.

    P1 (gather input files) decomposes into per-file subtasks — the
    paper parallelized the C++ processes #0/#1 internally (§V.1).
    """
    ovh = model.overheads.task_spawn_s
    cost = model.cost(pid, workload)
    if pid == 1 and workload.n_files > 1:
        share = cost / workload.n_files
        tasks = [
            _process_task(f"{label}.P1.{i}", 1, share + ovh, label, barrier, model)
            for i in range(workload.n_files)
        ]
    else:
        tasks = [_process_task(f"{label}.P{pid}", pid, cost + ovh, label, barrier, model)]
    return tasks, _names(tasks)


def _loop_items(pid: int, workload: EventWorkload, model: CostModel) -> list[float]:
    """Per-item costs of a loop member's work decomposition."""
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


def _loop_member(
    label: str, pid: int, barrier: tuple[str, ...], workload: EventWorkload, model: CostModel
) -> Expansion:
    """One task per loop item behind the barrier."""
    if pid == 10:
        # Outer station loop sequential, inner 3-component loop
        # parallel: N chained groups of 3 concurrent tasks.
        tasks: list[SimTask] = []
        prev = barrier
        for i, share in enumerate(model.file_cost_shares(10, workload)):
            group = [
                _process_task(
                    f"{label}.P10.{i}.{c}", 10,
                    share / 3.0 + model.overheads.task_spawn_s, label, prev, model,
                )
                for c in range(3)
            ]
            tasks.extend(group)
            prev = _names(group)
        return tasks, prev
    ovh = model.overheads.loop_item_s
    tasks = [
        _process_task(f"{label}.P{pid}.{i}", pid, cost + ovh, label, barrier, model)
        for i, cost in enumerate(_loop_items(pid, workload, model))
    ]
    return tasks, _names(tasks)


def _temp_folder_member(
    label: str, pid: int, barrier: tuple[str, ...], workload: EventWorkload, model: CostModel
) -> Expansion:
    """Stage-in -> tool -> stage-out per instance, plus the sequential
    EXE-copy chain: instance i's tool run also waits for EXE move i."""
    ovh = model.overheads
    pc = model.process(pid)
    tasks: list[SimTask] = []
    prev = barrier
    for i in range(workload.n_files):
        tasks.append(
            SimTask(
                name=f"{label}.exe.{i}", work_s=ovh.exe_move_s, io_fraction=0.9,
                deps=prev, stage=label,
            )
        )
        prev = (tasks[-1].name,)

    finals: list[str] = []
    shares = model.file_cost_shares(pid, workload)
    for i, (share, points) in enumerate(zip(shares, workload.file_points)):
        staging = 0.5 * (ovh.tool_instance_fixed_s + ovh.tool_staging_per_point_s * points)
        t_in = SimTask(
            name=f"{label}.in.{i}", work_s=staging, io_fraction=0.95,
            deps=barrier, stage=label,
        )
        t_tool = SimTask(
            name=f"{label}.tool.{i}", work_s=share, io_fraction=pc.io,
            mem_fraction=pc.mem, deps=(t_in.name, f"{label}.exe.{i}"), stage=label,
        )
        t_out = SimTask(
            name=f"{label}.out.{i}", work_s=staging, io_fraction=0.95,
            deps=(t_tool.name,), stage=label,
        )
        tasks.extend((t_in, t_tool, t_out))
        finals.append(t_out.name)
    return tasks, tuple(finals)


# -- the wavefront plan's opaque tasks ----------------------------------------

#: The prologue's processes (stages I, II and VII), in the order it runs them.
_PROLOGUE = (0, 1, 2, 5, 8, 17, 11)


def _wavefront_prologue(
    label: str, barrier: tuple[str, ...], workload: EventWorkload, model: CostModel
) -> Expansion:
    names = [(f"{label}.P{pid}", pid) for pid in _PROLOGUE]
    return _seq_chain(label, names, barrier, workload, model)


def _wavefront_fanout(
    label: str, barrier: tuple[str, ...], workload: EventWorkload, model: CostModel
) -> Expansion:
    """One dependency chain per station — separation, two staged
    corrections, Fourier, corners, three concurrent response traces,
    GEM and the three plots — with no stage barriers."""
    ovh = model.overheads
    shares = {pid: model.file_cost_shares(pid, workload) for pid in
              (3, 4, 7, 10, 13, 16, 19, 9, 15, 18)}
    tasks: list[SimTask] = []
    finals: list[str] = []
    for i, points in enumerate(workload.file_points):
        staging = 0.5 * (ovh.tool_instance_fixed_s + ovh.tool_staging_per_point_s * points)

        def step(name: str, pid: int, work: float, deps: tuple[str, ...]) -> SimTask:
            return _process_task(name, pid, work + ovh.loop_item_s, label, deps, model)

        tasks.extend((
            step(f"wf.{i}.p3", 3, shares[3][i], barrier),
            step(f"wf.{i}.p4", 4, shares[4][i] + 2 * staging, (f"wf.{i}.p3",)),
            step(f"wf.{i}.p7", 7, shares[7][i] + 2 * staging, (f"wf.{i}.p4",)),
            step(f"wf.{i}.p10", 10, shares[10][i], (f"wf.{i}.p7",)),
            step(f"wf.{i}.p13", 13, shares[13][i] + 2 * staging, (f"wf.{i}.p10",)),
        ))
        # Three response traces run as the chain's widest point.
        traces = tuple(f"wf.{i}.p16.{c}" for c in range(3))
        tasks.extend(
            step(name, 16, shares[16][i] / 3.0, (f"wf.{i}.p13",)) for name in traces
        )
        tasks.extend((
            step(f"wf.{i}.p19", 19, shares[19][i], traces),
            step(f"wf.{i}.p9", 9, shares[9][i], (f"wf.{i}.p10",)),
            step(f"wf.{i}.p15", 15, shares[15][i], (f"wf.{i}.p13",)),
            step(f"wf.{i}.p18", 18, shares[18][i], traces),
        ))
        finals.extend((f"wf.{i}.p19", f"wf.{i}.p9", f"wf.{i}.p15", f"wf.{i}.p18"))
    return tasks, tuple(finals)


def _wavefront_epilogue(
    label: str, barrier: tuple[str, ...], workload: EventWorkload, model: CostModel
) -> Expansion:
    # The shard merge is the serial driver work the fan-out's driver
    # charge already models.
    return [], barrier


#: Custom task name -> hand expansion, for the wavefront plan only,
#: until its station chains are real graph edges.
_CUSTOM_EXPANSIONS: dict[str, Callable[..., Expansion]] = {
    "prologue": _wavefront_prologue,
    "wavefront": _wavefront_fanout,
    "epilogue": _wavefront_epilogue,
}

_MEMBER_EXPANSIONS: dict[str, Callable[..., Expansion]] = {
    SEQ: _task_member,  # submitted with the region's other members
    TASK: _task_member,
    LOOP: _loop_member,
    TEMP_FOLDERS: _temp_folder_member,
}


# -- plan walking -------------------------------------------------------------


def _effective_strategy(region: Region) -> str:
    """The strategy the region runs with; a lone custom task's is the
    one its stage span shows, as in the executor."""
    if region.strategy == CUSTOM and len(region.tasks) == 1:
        return region.tasks[0].span_strategy or CUSTOM
    return region.strategy


def _member(
    region: Region, task: Task, barrier: tuple[str, ...],
    workload: EventWorkload, model: CostModel,
) -> Expansion:
    if task.strategy == CUSTOM:
        expand = _CUSTOM_EXPANSIONS.get(task.name)
        if expand is None:
            raise CalibrationError(
                f"custom task {task.name!r} is opaque to the cost model; "
                "its plan cannot be simulated"
            )
        return expand(region.label, barrier, workload, model)
    return _MEMBER_EXPANSIONS[task.strategy](region.label, task.pid, barrier, workload, model)


def _plan(name: str) -> list[Region]:
    try:
        policy = policy_by_name(name)
    except ValueError as exc:
        raise CalibrationError(str(exc)) from None
    _graph, regions = policy.plan()
    return regions


def _expand(regions: list[Region], workload: EventWorkload, model: CostModel) -> list[SimTask]:
    tasks: list[SimTask] = []
    frontier: tuple[str, ...] = ()
    for region in regions:
        label = region.label
        if region.strategy == SEQ:
            chain = [
                (task.name if task.name == label else f"{label}.{task.name}", task.pid)
                for task in region.tasks
            ]
            added, frontier = _seq_chain(label, chain, frontier, workload, model)
            tasks.extend(added)
            continue
        finals: list[str] = []
        for task in region.tasks:
            added, ends = _member(region, task, frontier, workload, model)
            tasks.extend(added)
            finals.extend(ends)
        frontier = tuple(finals)
        if _effective_strategy(region) != SEQ:
            # Serial driver work trails every parallel region (see
            # Overheads.driver_cost); attributed to no stage so the
            # Fig. 11 per-stage spans stay clean.
            tasks.append(
                SimTask(
                    name=f"{label}.driver",
                    work_s=model.overheads.driver_cost(workload.total_points),
                    io_fraction=0.6,
                    deps=frontier,
                    stage="driver",
                )
            )
            frontier = (f"{label}.driver",)
    return tasks


def build_sim_tasks(
    implementation: str,
    workload: EventWorkload,
    model: CostModel = DEFAULT_COST_MODEL,
) -> list[SimTask]:
    """The simulated task graph of one policy's plan on one workload."""
    return _expand(_plan(implementation), workload, model)


def simulate_implementation(
    implementation: str,
    workload: EventWorkload,
    model: CostModel = DEFAULT_COST_MODEL,
    machine: SimulatedMachine = PAPER_MACHINE,
) -> SimulationResult:
    """Simulate one policy end-to-end on the machine model.

    A plan with no parallel region runs on a single speed-1.0 worker
    (the paper's baseline measures one core); the others use the full
    machine.
    """
    regions = _plan(implementation)
    if all(_effective_strategy(region) == SEQ for region in regions):
        machine = SimulatedMachine(
            speeds=(1.0,), io_capacity=machine.io_capacity, mem_capacity=machine.mem_capacity
        )
    return simulate_task_graph(_expand(regions, workload, model), machine)
