"""Scheduling policies: the paper's schemes as plans over one engine.

A :class:`SchedulingPolicy` owns exactly one decision — *which tasks
run between which barriers, with which per-task strategy* — expressed
as a :class:`~repro.engine.graph.TaskGraph` plus an ordered list of
:class:`~repro.engine.graph.Region` barrier groups.  The engine
executes any valid plan, so the paper's four schemes reduce to four
small policy objects:

==================  ==================================================
``seq-original``    every process its own barrier, numeric order
``seq-optimized``   the 17-process order, redundancies removed
``partial-parallel``  Fig. 9 stages, 5 of 11 parallel
``full-parallel``   Fig. 9 stages, 10 of 11 parallel
==================  ==================================================

Beyond the paper, ``full-parallel-fused`` executes the ``repro-lint``
fusion advisories (adjacent stages with no crossing dependency edge
merge into one barrier group), and ``dag-parallel`` drops the Fig. 9
layering entirely, running the layering derived from the registry
declarations — as many barriers as the I/O requires, none extra.
``wavefront-parallel`` (§VIII) is a prologue / station fan-out /
epilogue plan, and ``incremental`` is the optimized order as a chain
of digest-checked steps.

Every plan is validated against the derived dependency graph before
execution: a policy cannot ship a schedule the declarations forbid.
"""

from __future__ import annotations

import difflib
import logging
import time
from functools import partial
from typing import Callable, Iterable, Sequence

from repro.core import incremental
from repro.core.processes.p03_separate import stations_from_list
from repro.core.registry import OPTIMIZED_ORDER, ORIGINAL_ORDER, PROCESSES
from repro.core.runner import ProcessTiming
from repro.core.stages import STAGES
from repro.engine.graph import (
    CUSTOM,
    LOOP,
    SEQ,
    TASK,
    TEMP_FOLDERS,
    PipelineBuilder,
    Region,
    TaskGraph,
)
from repro.engine.stations import _merge_suffixed, process_station_wavefront
from repro.errors import PipelineError

# Per-process skip/restore lines stay on the core logger, like every
# other per-process completion line.
core_logger = logging.getLogger("repro.core")

#: Stage-level strategy -> per-task strategy of its members.
_MEMBER_STRATEGY = {
    "seq": SEQ,
    "tasks": TASK,
    "loop": LOOP,
    "temp_folders": TEMP_FOLDERS,
}


class SchedulingPolicy:
    """How a pipeline's task graph is laid out between barriers.

    Subclasses implement :meth:`plan`; :meth:`pipeline` adapts the
    policy to the implementation interface so it can be run, traced,
    profiled and benchmarked.
    """

    name: str = ""
    description: str = ""

    def plan(self) -> tuple[TaskGraph, list[Region]]:
        """The (graph, barrier regions) pair the engine executes.

        A function of the policy alone: the executor, the graph
        verifier and the simulator all read this one plan.
        """
        raise NotImplementedError

    def pipeline(self):
        """An executable :class:`~repro.core.runner.PipelineImplementation`."""
        from repro.engine.executor import EnginePipeline

        return EnginePipeline(self)

    def run(self, ctx):
        """Convenience: execute this policy end-to-end."""
        return self.pipeline().run(ctx)


class SequentialPolicy(SchedulingPolicy):
    """A fixed linear order: every process is its own barrier region.

    The plan is still validated against the derived dependency graph,
    so an order that violates the declarations is rejected before
    anything runs.
    """

    def __init__(
        self, order: Sequence[int], *, name: str, description: str = ""
    ) -> None:
        self.order = tuple(order)
        self.name = name
        self.description = description

    def plan(self) -> tuple[TaskGraph, list[Region]]:
        builder = PipelineBuilder(name=self.name)
        tasks = builder.add_processes(self.order, strategy=SEQ)
        graph = builder.build()
        regions = [
            Region(label=task.name, tasks=(task,), strategy=SEQ) for task in tasks
        ]
        return graph, regions


class StagedPolicy(SchedulingPolicy):
    """The Fig. 9 eleven-stage plan with per-stage strategies.

    ``strategies`` maps stage name to its strategy (missing stages run
    ``seq``).
    With ``fuse=True``, adjacent stages joined by no dependency edge
    merge into single barrier groups: the executed form of the
    ``repro-lint`` schedule advisories (II+III, VI+VII, X+XI on the
    optimized pipeline).
    """

    def __init__(
        self,
        *,
        name: str,
        description: str = "",
        strategies: dict[str, str] | None = None,
        fuse: bool = False,
    ) -> None:
        self.name = name
        self.description = description
        self.strategies = dict(strategies or {})
        self.fuse = fuse

    def plan(self) -> tuple[TaskGraph, list[Region]]:
        builder = PipelineBuilder(name=self.name)
        regions: list[Region] = []
        for stage in STAGES:
            strategy = self.strategies.get(stage.name, SEQ)
            member = _MEMBER_STRATEGY.get(strategy)
            if member is None:
                raise PipelineError(
                    f"unknown stage strategy {strategy!r} for stage {stage.name}"
                )
            members = tuple(
                builder.add_process(pid, strategy=member) for pid in stage.processes
            )
            regions.append(Region(label=stage.name, tasks=members, strategy=strategy))
        graph = builder.build()
        if self.fuse:
            regions = graph.fuse_regions(regions)
        return graph, regions


class DerivedPolicy(SchedulingPolicy):
    """The schedule the declarations imply — no hand-written layering.

    Regions are the dependency graph's topological generations
    (``G1``..``Gn``): as many barriers as the registry's read/write
    declarations require, none that they don't.  Per-process strategies
    are inherited from the fully-parallel scheme so loops and
    temp-folder stages keep their inner parallelism; mixed generations
    execute as fused dispatches.
    """

    def __init__(
        self,
        order: Sequence[int] = OPTIMIZED_ORDER,
        *,
        name: str = "dag-parallel",
        description: str = "DAG-derived: barriers straight from the declarations",
    ) -> None:
        self.order = tuple(order)
        self.name = name
        self.description = description

    def plan(self) -> tuple[TaskGraph, list[Region]]:
        strategy_of = {
            pid: _MEMBER_STRATEGY[stage.full_strategy]
            for stage in STAGES
            for pid in stage.processes
        }
        builder = PipelineBuilder(name=self.name)
        for pid in self.order:
            builder.add_process(pid, strategy=strategy_of.get(pid, SEQ))
        graph = builder.build()
        return graph, graph.derive_regions()


class WavefrontPolicy(SchedulingPolicy):
    """Prologue / station fan-out / epilogue as three custom tasks.

    The paper's §VIII wavefront scheduling: after a short sequential
    prologue (stages I, II and VII build the global lists and
    metadata), every station flows through its whole chain
    (:func:`~repro.engine.stations.process_station_wavefront`) with no
    stage barriers, and a deterministic epilogue merges the gathered
    corner specs and maxvals shards.  The fan-out is a parallel loop
    over stations.
    """

    name = "wavefront-parallel"
    description = "Wavefront: per-station pipelines, no stage barriers (§VIII)"

    def plan(self) -> tuple[TaskGraph, list[Region]]:
        state: dict = {}
        builder = PipelineBuilder(name=self.name)
        # Effects are declared so the graph verifier can prove the
        # three-region plan: prologue and epilogue bodies are
        # cross-checked by inference, the station fan-out is opaque
        # (its work happens in pool workers).
        builder.add_task(
            "prologue", self._prologue, span_strategy=SEQ,
            reads=("raw_v1", "v1_list"),
            writes=(
                "flags", "v1_list", "filter_params", "acc_meta",
                "fourier_meta", "response_meta", "fouriergraph_meta",
                "responsegraph_meta", "flags2",
            ),
        )
        builder.add_task(
            "wavefront", partial(self._fanout, state), after=["prologue"],
            span_strategy=LOOP,
            reads=("v1_list", "raw_v1", "filter_params", "comp_v1", "comp_v2", "comp_f"),
            writes=("comp_v1", "comp_v2", "comp_f"),
            opaque=True,
        )
        builder.add_task(
            "epilogue", partial(self._epilogue, state), after=["wavefront"],
            span_strategy=SEQ,
            writes=("filter_corrected", "maxvals", "maxvals2"),
        )
        graph = builder.build()
        regions = [
            Region(label=task.name, tasks=(task,), strategy=CUSTOM)
            for task in graph.tasks
        ]
        return graph, regions

    @staticmethod
    def _prologue(ctx, result) -> None:
        # Coordinator prologue (stages I, II, VII), sequential: these
        # are milliseconds and must complete before any station starts.
        from repro.core.processes.p00_flags import run_p00
        from repro.core.processes.p01_gather import run_p01
        from repro.core.processes.p02_params import run_p02
        from repro.core.processes.p05_metadata import run_p05
        from repro.core.processes.p08_fourier_meta import run_p08
        from repro.core.processes.p11_flags2 import run_p11
        from repro.core.processes.p17_response_meta import run_p17

        run_p00(ctx)
        run_p01(ctx)
        run_p02(ctx)
        run_p05(ctx)
        run_p08(ctx)
        run_p17(ctx)
        run_p11(ctx)

    def _fanout(self, state: dict, ctx, result) -> None:
        from repro.parallel.omp import parallel_for

        stations = stations_from_list(ctx.workspace)
        per_station = parallel_for(
            partial(process_station_wavefront, ctx),
            list(enumerate(stations)),
            backend=ctx.parallel.backend,
            num_workers=ctx.parallel.workers,
            tracer=ctx.tracer,
            span="station_pipeline",
            metrics=ctx.metrics,
        )
        state["specs"] = [spec for specs in per_station for spec in specs]

    def _epilogue(self, state: dict, ctx, result) -> None:
        from repro.core.artifacts import FILTER_CORRECTED, MAXVALS, MAXVALS2
        from repro.core.auditing import unit_scope
        from repro.formats.params import FilterParams, write_filter_params

        with unit_scope("P10"):
            params = FilterParams(default=ctx.default_filter)
            for station, comp, spec in state["specs"]:
                params.set_override(station, comp, spec)
            write_filter_params(ctx.workspace.work(FILTER_CORRECTED), params)
        with unit_scope("P4"):
            _merge_suffixed(ctx.workspace, "max1", MAXVALS)
        with unit_scope("P13"):
            _merge_suffixed(ctx.workspace, "max2", MAXVALS2)
        # The fan-out is the run's one unit of process work; its
        # barrier duration was recorded when its region closed.
        result.processes.append(
            ProcessTiming(
                pid=-1,
                name="wavefront station pipelines",
                stage="wavefront",
                duration_s=result.stage_durations["wavefront"],
            )
        )


class IncrementalPolicy(SchedulingPolicy):
    """Sequential-optimized order with up-to-date processes skipped.

    One region per process, each a custom task ``P<pid>`` whose body
    is a digest-checked step (:mod:`repro.core.incremental`): skip the
    process when its inputs and outputs match the recorded digests,
    restore its cached output bytes when only the outputs changed,
    otherwise run it and record fresh digests.  The final artifacts
    are byte-identical to every other policy's; only the amount of
    work re-done differs.  :attr:`executed`, :attr:`skipped` and
    :attr:`restored` report what the last run did.
    """

    name = "incremental"
    description = "Incremental: skip processes whose inputs/outputs are unchanged"

    def __init__(self) -> None:
        self.executed: list[int] = []
        self.skipped: list[int] = []
        self.restored: list[int] = []

    def plan(self) -> tuple[TaskGraph, list[Region]]:
        self.executed, self.skipped, self.restored = [], [], []
        run: dict = {}
        builder = PipelineBuilder(name=self.name)
        previous: list[str] = []
        for pid in OPTIMIZED_ORDER:
            spec = PROCESSES[pid]
            # The step digests, restores or runs exactly the process's
            # declared artifacts, so those are its effects; the body
            # itself resolves paths at run time and is not analyzable.
            task = builder.add_task(
                f"P{pid}", partial(self._step, run, pid), after=previous,
                span_strategy=SEQ,
                reads=tuple(ref.identity for ref in spec.reads),
                writes=tuple(ref.identity for ref in spec.writes),
                opaque=True,
            )
            previous = [task.name]
        graph = builder.build()
        regions = [
            Region(label=task.name, tasks=(task,), strategy=CUSTOM)
            for task in graph.tasks
        ]
        return graph, regions

    def _step(self, run: dict, pid: int, ctx, result) -> None:
        if not run:
            run["stations"] = ctx.stations()
            run["config"] = incremental.config_fingerprint(ctx)
            run["state"] = incremental.load_state(ctx.workspace.root)
        spec = PROCESSES[pid]
        workspace = ctx.workspace
        read_paths = [
            path for ref in spec.reads
            for path in workspace.artifact_paths(ref.identity, run["stations"])
        ]
        write_paths = [
            path for ref in spec.writes
            for path in workspace.artifact_paths(ref.identity, run["stations"])
        ]
        inputs_fp = run["config"] + incremental.digest_files(read_paths)
        entry = run["state"].get(str(pid))
        if entry is not None and entry.get("inputs") == inputs_fp:
            if entry.get("outputs") == incremental.digest_files(write_paths):
                self.skipped.append(pid)
                core_logger.debug("%s up to date, skipped", spec.label)
                return
            # Same inputs, outputs overwritten or deleted: restore the
            # cached bytes instead of recomputing, then verify.
            if (
                incremental.restore_outputs(workspace.root, pid, write_paths)
                and entry.get("outputs") == incremental.digest_files(write_paths)
            ):
                self.restored.append(pid)
                core_logger.debug("%s restored from the output cache", spec.label)
                return

        start = time.perf_counter()
        spec.run(ctx)
        elapsed = time.perf_counter() - start
        self.executed.append(pid)
        result.processes.append(
            ProcessTiming(pid=pid, name=spec.name, stage=spec.label, duration_s=elapsed)
        )
        incremental.cache_outputs(workspace.root, pid, write_paths)
        run["state"][str(pid)] = {
            "inputs": inputs_fp,
            "outputs": incremental.digest_files(write_paths),
        }
        incremental.save_state(workspace.root, run["state"])


class GraphPolicy(SchedulingPolicy):
    """A user-built graph (or builder), scheduled by its derived layers."""

    def __init__(self, graph_or_builder, *, name: str | None = None) -> None:
        if isinstance(graph_or_builder, PipelineBuilder):
            self._graph = graph_or_builder.build()
            self.name = name or graph_or_builder.name
        elif isinstance(graph_or_builder, TaskGraph):
            self._graph = graph_or_builder
            self.name = name or "custom"
        else:
            raise PipelineError(
                "GraphPolicy expects a PipelineBuilder or TaskGraph, "
                f"got {type(graph_or_builder).__name__}"
            )
        self.description = f"User-built graph ({len(self._graph)} tasks)"

    def plan(self) -> tuple[TaskGraph, list[Region]]:
        return self._graph, self._graph.derive_regions()


# -- registry ---------------------------------------------------------------


def _partial_strategies() -> dict[str, str]:
    return {stage.name: stage.partial_strategy for stage in STAGES}


def _full_strategies() -> dict[str, str]:
    return {stage.name: stage.full_strategy for stage in STAGES}


#: The paper's four schemes (§III–§VI), in presentation order.
PAPER_POLICIES: tuple[str, ...] = (
    "seq-original", "seq-optimized", "partial-parallel", "full-parallel",
)

#: Policy name -> zero-argument factory.  Extend with
#: :func:`register_policy`.
POLICIES: dict[str, Callable[[], SchedulingPolicy]] = {
    "seq-original": lambda: SequentialPolicy(
        ORIGINAL_ORDER,
        name="seq-original",
        description="Sequential Original: 20 processes in numeric order",
    ),
    "seq-optimized": lambda: SequentialPolicy(
        OPTIMIZED_ORDER,
        name="seq-optimized",
        description="Sequential Optimized: 17 processes, redundancies removed",
    ),
    "partial-parallel": lambda: StagedPolicy(
        name="partial-parallel",
        description="Partially Parallelized: stages I, II, VI, X, XI parallel",
        strategies=_partial_strategies(),
    ),
    "full-parallel": lambda: StagedPolicy(
        name="full-parallel",
        description="Fully Parallelized: all stages except VII parallel",
        strategies=_full_strategies(),
    ),
    "full-parallel-fused": lambda: StagedPolicy(
        name="full-parallel-fused",
        description="Fully Parallelized + fusion: advisory stages merged "
        "into single barrier groups",
        strategies=_full_strategies(),
        fuse=True,
    ),
    "dag-parallel": lambda: DerivedPolicy(),
    "wavefront-parallel": lambda: WavefrontPolicy(),
    "incremental": lambda: IncrementalPolicy(),
}


def register_policy(name: str, factory: Callable[[], SchedulingPolicy]) -> None:
    """Add (or replace) a named policy in the registry."""
    POLICIES[str(name)] = factory


def policy_names() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return tuple(POLICIES)


def _unknown_name_error(kind: str, name: str, known: Iterable[str]) -> ValueError:
    known = list(known)
    message = f"unknown {kind} {name!r}; known: {known}"
    close = difflib.get_close_matches(name, known, n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return ValueError(message)


def policy_by_name(name: str) -> SchedulingPolicy:
    """Look up a scheduling policy by name.

    Raises :class:`ValueError` naming every registered policy (and the
    closest match) instead of a bare ``KeyError``.
    """
    factory = POLICIES.get(str(name))
    if factory is None:
        raise _unknown_name_error("policy", str(name), POLICIES)
    return factory()


def pipeline_factory(name: str) -> Callable:
    """A zero-argument factory of executable pipelines for ``name``.

    Validates the name eagerly (helpful ``ValueError`` on a miss) and
    returns a callable producing a fresh
    :class:`~repro.core.runner.PipelineImplementation` per call — the
    shape the bench/perf harnesses construct their runs from.
    """
    policy_by_name(name)
    return lambda: policy_by_name(name).pipeline()


def resolve_policy(policy) -> SchedulingPolicy:
    """Coerce a name / policy / builder / graph into a policy instance."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    if isinstance(policy, (PipelineBuilder, TaskGraph)):
        return GraphPolicy(policy)
    if isinstance(policy, str):
        return policy_by_name(policy)
    raise ValueError(
        "policy must be a name, a SchedulingPolicy, a PipelineBuilder or a "
        f"TaskGraph; got {type(policy).__name__}"
    )
