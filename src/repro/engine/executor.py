"""The DAG execution engine.

One executor runs every scheduling policy: it walks an execution plan
(a list of barrier :class:`~repro.engine.graph.Region` groups over a
:class:`~repro.engine.graph.TaskGraph`), dispatching each region
through the strategy machinery the paper's implementations share:

- ``seq``          — members one at a time on the driver;
- ``tasks``        — members as OpenMP-style tasks + taskwait;
- ``loop``         — the member's data loop via :func:`parallel_for`;
- ``temp_folders`` — concurrent legacy-tool instances staged into
  temporary folders;
- ``custom``       — the member's own callable;
- ``fused``        — mixed members in one dispatch: task members are
  submitted, loop members run on the driver, and a single barrier
  closes the region (the executed form of ``repro-lint``'s "could
  start concurrently" advisories).

Every parallel path collects per-item results in deterministic order
and performs merges after its own process completes, so outputs are
byte-identical across policies and backends.  Spans, metrics, worker
profile shards, and the resilience runtime's retry/quarantine wrappers
thread through exactly as they did in the per-implementation
executors this module replaces.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import Executor
from contextlib import nullcontext
from functools import partial

from repro.core.artifacts import (
    FILTER_CORRECTED,
    FILTER_PARAMS,
    MAXVALS,
    MAXVALS2,
)
from repro.core.auditing import unit_scope
from repro.core.context import RunContext
from repro.core.processes.common import merge_max_files
from repro.core.processes.p03_separate import separate_station, stations_from_list
from repro.core.processes.p16_response import response_for_trace, trace_pairs
from repro.core.processes.p19_gem import interleaved_files, set_data_apart
from repro.core.registry import PROCESSES
from repro.core.runner import PipelineImplementation, PipelineResult, ProcessTiming
from repro.core.tempfolders import STAGE_PROCESS, StagedInstance, run_staged_instance
from repro.engine.graph import (
    CUSTOM,
    FUSED,
    LOOP,
    SEQ,
    TASK,
    TEMP_FOLDERS,
    Region,
    Task,
    TaskGraph,
)
from repro.errors import PipelineError
from repro.formats.common import COMPONENTS
from repro.formats.fourier import component_f_name
from repro.formats.v1 import component_v1_name
from repro.formats.v2 import component_v2_name
from repro.observability.events import emit as emit_event
from repro.observability.events import is_active as events_active
from repro.observability.events import stage_scope
from repro.observability.tracer import maybe_span
from repro.parallel.native import single_threaded_blas
from repro.parallel.omp import TaskGroup, parallel_for, shared_executor
from repro.resilience.runtime import current_runtime

logger = logging.getLogger("repro.engine")
# Per-process completion lines stay on the core logger: operators (and
# the logging tests) filter on "repro.core" regardless of executor.
core_logger = logging.getLogger("repro.core")


def _timed(pid: int, ctx: RunContext, **kwargs: object) -> tuple[int, float]:
    """Run one registry process, returning (pid, elapsed)."""
    spec = PROCESSES[pid]
    start = time.perf_counter()
    spec.run(ctx, **kwargs)  # type: ignore[call-arg]
    return pid, time.perf_counter() - start


def _response_unit(workspace_root: str, config: object, pair: tuple[str, str]) -> str:
    """Picklable body for the response-spectrum loop (P16)."""
    v2_name, r_name = pair
    return response_for_trace(workspace_root, v2_name, r_name, config)  # type: ignore[arg-type]


def _gem_unit(workspace_root: str, item: tuple[str, bool]) -> list[str]:
    """Picklable body for the GEM-export loop (P19)."""
    file_name, is_response = item
    return set_data_apart(workspace_root, file_name, is_response)


def correction_instance(
    stage: str, index: int, station: str, params_name: str
) -> StagedInstance:
    """Staging description for one correction-tool instance (P4/P13)."""
    inputs = [params_name] + [component_v1_name(station, c) for c in COMPONENTS]
    outputs = [component_v2_name(station, c) for c in COMPONENTS] + [
        f"{station}{c}.max" for c in COMPONENTS
    ]
    return StagedInstance(
        stage=stage,
        index=index,
        tool="correction",
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        config=(
            ("params", params_name),
            ("process", STAGE_PROCESS.get(stage.upper(), "P4")),
        ),
        unit=station,
    )


def fourier_instance(stage: str, index: int, station: str, ctx: RunContext) -> StagedInstance:
    """Staging description for one Fourier-tool instance (P7)."""
    inputs = [component_v2_name(station, c) for c in COMPONENTS]
    outputs = [component_f_name(station, c) for c in COMPONENTS]
    return StagedInstance(
        stage=stage,
        index=index,
        tool="fourier",
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        config=(
            ("taper", str(ctx.taper_fraction)),
            ("maxperiod", str(ctx.fourier_max_period)),
            ("process", STAGE_PROCESS.get(stage.upper(), "P7")),
        ),
        unit=station,
    )


class Engine:
    """Executes one policy's plan against a run context.

    The engine owns per-run state only (the run's worker pool); the
    policy owns the schedule.  :class:`EnginePipeline` adapts a policy
    to the :class:`PipelineImplementation` interface so every existing
    tool (tracer, profiler, perf gate, chaos soak) drives engine runs
    unchanged.
    """

    def __init__(self, policy, *, verify: bool = False) -> None:
        self.policy = policy
        self.name = policy.name
        self.verify = verify

    # -- plan execution ----------------------------------------------------

    def execute(self, ctx: RunContext, result: PipelineResult) -> None:
        graph, regions = self.policy.plan()
        graph.validate_regions(regions)
        if self.verify:
            self._verify_plan(graph, regions)
        self._record_plan(ctx, regions)
        self._emit_plan(ctx, regions)
        # One level of parallelism per run: BLAS runs single-threaded
        # for the run's duration, and one pool serves every loop, task
        # and temp-folder region.  The pool is built after the pin, so
        # forked workers inherit it, and pool creation (for the process
        # backend, worker forking) is paid once per run, not per region.
        run_pool = (
            shared_executor(ctx.parallel.backend, ctx.parallel.workers)
            if _needs_pool(ctx, regions) else nullcontext()
        )
        with single_threaded_blas(), run_pool as pool:
            for region in regions:
                self._run_region(ctx, result, region, pool)
        # The temp-folder parent is scratch space; leave the workspace
        # with the same inventory a sequential run produces.
        tmp = ctx.workspace.tmp_dir
        if tmp.exists() and not any(tmp.iterdir()):
            tmp.rmdir()

    def _verify_plan(self, graph: TaskGraph, regions: list[Region]) -> None:
        """Run the graph verifier; errors refuse execution."""
        from repro.analysis.graphlint import verify_graph
        from repro.analysis.model import ERROR
        from repro.errors import VerificationError

        errors = [f for f in verify_graph(graph, regions) if f.severity == ERROR]
        if errors:
            details = "\n".join(f"  - {f.render()}" for f in errors)
            raise VerificationError(
                f"policy {self.name!r} failed graph verification "
                f"({len(errors)} error(s)):\n{details}"
            )

    def _record_plan(self, ctx: RunContext, regions: list[Region]) -> None:
        """Persist the executed plan for the happens-before cross-check."""
        from repro.core.auditing import is_active, record_plan

        if not is_active(ctx.workspace.root):
            return
        record_plan(ctx.workspace.root, {
            "policy": self.name,
            "regions": [
                {"label": region.label, "tasks": [t.name for t in region.tasks]}
                for region in regions
            ],
        })

    def _emit_plan(self, ctx: RunContext, regions: list[Region]) -> None:
        """Publish the barrier plan to the event bus, so a live monitor
        knows every stage (and its task count) before any has run."""
        if not events_active(ctx.workspace.root):
            return
        emit_event(ctx.workspace.root, "plan", policy=self.name, regions=[
            {
                "label": region.label,
                "strategy": region.strategy,
                "tasks": [t.name for t in region.tasks],
            }
            for region in regions
        ])

    def _run_region(
        self, ctx: RunContext, result: PipelineResult, region: Region,
        pool: Executor | None,
    ) -> None:
        strategy = region.strategy
        span_strategy = strategy
        if strategy == CUSTOM and len(region.tasks) == 1:
            span_strategy = region.tasks[0].span_strategy or CUSTOM
        live = events_active(ctx.workspace.root)
        if live:
            emit_event(
                ctx.workspace.root, "stage_started", stage=region.label,
                strategy=span_strategy, implementation=self.name,
            )
        with maybe_span(
            ctx.tracer, region.label, kind="stage", stage=region.label,
            strategy=span_strategy, implementation=self.name,
        ) as stage_span, stage_scope(region.label):
            start = time.perf_counter()
            self._dispatch(ctx, result, region, pool)
            elapsed = time.perf_counter() - start
        # When tracing, the stage clock *is* the stage span, so the
        # trace and the result cannot disagree.
        result.stage_durations[region.label] = (
            stage_span.duration_s if stage_span is not None else elapsed
        )
        if live:
            emit_event(
                ctx.workspace.root, "stage_finished", stage=region.label,
                duration_s=result.stage_durations[region.label],
            )
        logger.debug(
            "region %s (%s) finished in %.4f s",
            region.label, strategy, result.stage_durations[region.label],
        )

    def _dispatch(
        self, ctx: RunContext, result: PipelineResult, region: Region,
        pool: Executor | None,
    ) -> None:
        if region.strategy == SEQ:
            self._region_seq(ctx, result, region)
        elif region.strategy == "tasks":
            self._region_tasks(ctx, result, region, pool)
        elif region.strategy == LOOP:
            (task,) = region.tasks
            self._loop_member(ctx, result, region, task.pid, pool)
        elif region.strategy == TEMP_FOLDERS:
            (task,) = region.tasks
            self._temp_folder_member(ctx, result, region, task.pid, pool)
        elif region.strategy == CUSTOM:
            self._region_custom(ctx, result, region)
        elif region.strategy == FUSED:
            self._region_fused(ctx, result, region, pool)
        else:
            raise PipelineError(f"unknown region strategy {region.strategy!r}")

    def _record(
        self, result: PipelineResult, region: Region, pid: int, duration: float,
        ctx: RunContext | None = None,
    ) -> None:
        spec = PROCESSES[pid]
        result.processes.append(
            ProcessTiming(
                pid=pid, name=spec.name, stage=region.label, duration_s=duration,
            )
        )
        core_logger.debug(
            "%s (%s) finished in %.4f s", spec.label, spec.name, duration
        )
        if ctx is not None and events_active(ctx.workspace.root):
            emit_event(
                ctx.workspace.root, "process_finished", process=spec.label,
                name=spec.name, stage=region.label, duration_s=duration,
            )
        if ctx is not None and ctx.metrics is not None:
            from repro.observability.metrics import record_process

            record_process(pid, duration)

    # -- seq ---------------------------------------------------------------

    def _region_seq(self, ctx: RunContext, result: PipelineResult, region: Region) -> None:
        for task in region.tasks:
            with maybe_span(
                ctx.tracer, PROCESSES[task.pid].name, kind="process",
                pid=task.pid, stage=region.label,
            ):
                _, elapsed = _timed(task.pid, ctx)
            self._record(result, region, task.pid, elapsed, ctx=ctx)

    # -- tasks -------------------------------------------------------------

    def _region_tasks(
        self, ctx: RunContext, result: PipelineResult, region: Region,
        pool: Executor | None,
    ) -> None:
        with _task_group(ctx, region, pool) as tg:
            for task in region.tasks:
                tg.task(_timed, task.pid, ctx, span_name=PROCESSES[task.pid].name)
        for pid, elapsed in tg.results:
            self._record(result, region, pid, elapsed, ctx=ctx)

    # -- custom ------------------------------------------------------------

    def _region_custom(self, ctx: RunContext, result: PipelineResult, region: Region) -> None:
        for task in region.tasks:
            task.run(ctx, result)  # type: ignore[misc]

    # -- fused -------------------------------------------------------------

    def _region_fused(
        self, ctx: RunContext, result: PipelineResult, region: Region,
        pool: Executor | None,
    ) -> None:
        """One dispatch for a mixed region: submit the task members,
        drive the loop members from this thread, barrier once at the
        end.  Correct because region members are proven independent."""
        simple = _submitted(region)
        loops = [t for t in region.tasks if t.strategy in (LOOP, TEMP_FOLDERS)]
        custom = [t for t in region.tasks if t.strategy == CUSTOM]
        with _task_group(ctx, region, pool) as tg:
            for task in simple:
                tg.task(_timed, task.pid, ctx, span_name=PROCESSES[task.pid].name)
            for task in loops:
                if task.strategy == LOOP:
                    self._loop_member(ctx, result, region, task.pid, pool)
                else:
                    self._temp_folder_member(ctx, result, region, task.pid, pool)
            for task in custom:
                task.run(ctx, result)  # type: ignore[misc]
        for pid, elapsed in tg.results:
            self._record(result, region, pid, elapsed, ctx=ctx)

    # -- loops -------------------------------------------------------------

    def _loop_member(
        self, ctx: RunContext, result: PipelineResult, region: Region, pid: int,
        pool: Executor | None,
    ) -> None:
        start = time.perf_counter()
        # The driver-side reads (work lists, metadata) belong to the
        # loop's process too; worker threads start scope-free and take
        # the loop body's per-unit attribution instead.
        with maybe_span(
            ctx.tracer, PROCESSES[pid].name, kind="process", pid=pid, stage=region.label,
        ), unit_scope(f"P{pid}"):
            if pid == 3:
                stations = stations_from_list(ctx.workspace)
                runtime = current_runtime()
                isolate = runtime.isolation("P3") if runtime is not None else None
                parallel_for(
                    partial(separate_station, str(ctx.workspace.root)),
                    stations,
                    backend=ctx.parallel.backend,
                    num_workers=ctx.parallel.workers,
                    executor=pool,
                    tracer=ctx.tracer,
                    span="separate_station",
                    metrics=ctx.metrics,
                    isolate=isolate,
                )
                if isolate is not None and isolate.reports:
                    runtime.quarantine_reports(isolate.reports, tracer=ctx.tracer)
            elif pid == 10:
                PROCESSES[10].run(  # type: ignore[call-arg]
                    ctx, parallel_inner=True, executor=pool,
                )
            elif pid == 16:
                pairs = trace_pairs(ctx)
                body = partial(_response_unit, str(ctx.workspace.root), ctx.response_config)
                parallel_for(
                    body,
                    pairs,
                    backend=ctx.parallel.backend,
                    num_workers=ctx.parallel.workers,
                    executor=pool,
                    tracer=ctx.tracer,
                    span="response_trace",
                    metrics=ctx.metrics,
                )
            elif pid == 19:
                files = interleaved_files(ctx)
                body = partial(_gem_unit, str(ctx.workspace.root))
                parallel_for(
                    body,
                    files,
                    backend=ctx.parallel.backend,
                    num_workers=ctx.parallel.workers,
                    executor=pool,
                    tracer=ctx.tracer,
                    span="gem_export",
                    metrics=ctx.metrics,
                )
            else:
                raise PipelineError(f"no loop strategy defined for P{pid}")
        self._record(result, region, pid, time.perf_counter() - start, ctx=ctx)

    # -- temp folders ------------------------------------------------------

    def _temp_folder_member(
        self, ctx: RunContext, result: PipelineResult, region: Region, pid: int,
        pool: Executor | None,
    ) -> None:
        start = time.perf_counter()
        # Deliberately unscoped: the work-list read is orchestration (it
        # sizes the loop), not part of P4/P7/P13's declared access sets.
        stations = stations_from_list(ctx.workspace)
        # Temp-folder staging keys off the process's Fig. 9 stage name
        # so fused regions stage into the same folders a faithful run
        # uses.
        stage_name = _temp_folder_stage(pid)
        if pid in (4, 13):
            params_name = FILTER_PARAMS if pid == 4 else FILTER_CORRECTED
            maxvals_name = MAXVALS if pid == 4 else MAXVALS2
            instances = [
                correction_instance(stage_name, i, station, params_name)
                for i, station in enumerate(stations)
            ]
        elif pid == 7:
            instances = [
                fourier_instance(stage_name, i, station, ctx)
                for i, station in enumerate(stations)
            ]
            maxvals_name = None
        else:
            raise PipelineError(f"no temp-folder strategy defined for P{pid}")
        with maybe_span(
            ctx.tracer, PROCESSES[pid].name, kind="process", pid=pid, stage=region.label,
        ), unit_scope(f"P{pid}"):
            values = parallel_for(
                partial(run_staged_instance, str(ctx.workspace.root)),
                instances,
                backend=ctx.parallel.backend,
                num_workers=ctx.parallel.workers,
                executor=pool,
                tracer=ctx.tracer,
                span="staged_instance",
                metrics=ctx.metrics,
            )
            runtime = current_runtime()
            if runtime is not None:
                reports = [r for value in values if value for r in value]
                if reports:
                    # Quarantine (and purge) before the merge so the
                    # maxvals files only aggregate surviving stations.
                    runtime.quarantine_reports(reports, tracer=ctx.tracer)
            if maxvals_name is not None:
                merge_max_files(ctx.workspace.work_dir, maxvals_name)
        self._record(result, region, pid, time.perf_counter() - start, ctx=ctx)


def _submitted(region: Region) -> list[Task]:
    """The members a region submits to its task group."""
    if region.strategy == "tasks":
        return list(region.tasks)
    if region.strategy == FUSED:
        return [t for t in region.tasks if t.strategy in (SEQ, TASK)]
    return []


def _task_workers(ctx: RunContext, region: Region) -> int:
    """Workers of a region's task group.  The paper binds 2-4 processors
    for the lightweight task stages; we cap at the submitted members."""
    return min(ctx.parallel.workers, max(1, len(_submitted(region))))


def _task_group(ctx: RunContext, region: Region, pool: Executor | None) -> TaskGroup:
    """A region's task group, on the run's pool when it runs concurrently
    (a one-member group runs its task inline on the driver)."""
    workers = _task_workers(ctx, region)
    return TaskGroup(
        backend=ctx.parallel.backend, num_workers=workers,
        executor=pool if workers > 1 else None,
        tracer=ctx.tracer, metrics=ctx.metrics,
    )


def _needs_pool(ctx: RunContext, regions: list[Region]) -> bool:
    """Whether any of the plan's regions dispatches onto the run's pool."""
    return any(
        _task_workers(ctx, region) > 1
        or region.strategy in (LOOP, TEMP_FOLDERS, FUSED)
        and any(task.strategy in (LOOP, TEMP_FOLDERS) for task in region.tasks)
        for region in regions
    )


def _temp_folder_stage(pid: int) -> str:
    """Fig. 9 stage name of a temp-folder process (staging folder key)."""
    from repro.core.stages import stage_of_process

    return stage_of_process(pid).name


class EnginePipeline(PipelineImplementation):
    """A scheduling policy adapted to the implementation interface.

    This is the execution front door the API hands out: the shared
    :meth:`~repro.core.runner.PipelineImplementation.run` wrapper
    (auditing, resilience runtime, tracer/profiler sessions, metrics)
    drives the engine.
    """

    def __init__(self, policy, *, verify: bool = False) -> None:
        self.policy = policy
        self.name = policy.name
        self.description = policy.description
        self.verify = verify

    def execute(self, ctx: RunContext, result: PipelineResult) -> None:
        Engine(self.policy, verify=self.verify).execute(ctx, result)


def run_graph(
    graph_or_builder, ctx: RunContext, *, name: str | None = None,
    verify: bool = False,
) -> PipelineResult:
    """Execute a user-built graph (or builder) end-to-end.

    Convenience for ad-hoc pipelines::

        builder = PipelineBuilder(name="qc-only")
        builder.add_processes([0, 1, 2, 3], strategy="seq")
        result = run_graph(builder, ctx)

    With ``verify=True`` the plan is run through the graph verifier
    first; error findings raise
    :class:`~repro.errors.VerificationError` instead of executing.
    """
    from repro.engine.policy import GraphPolicy

    return EnginePipeline(
        GraphPolicy(graph_or_builder, name=name), verify=verify
    ).run(ctx)
