"""Task graphs and the pipeline-composition builder.

The engine's unit of work is a :class:`Task`: either a *process task*
(one of the registry's twenty numbered processes, whose dependency
edges are derived from its declared reads/writes) or a *custom task*
(an arbitrary callable, wired explicitly).  A :class:`PipelineBuilder`
collects tasks and dependency declarations and produces an immutable
:class:`TaskGraph`; the graph in turn derives barrier *regions* — the
antichain layers the executor runs between barriers — or validates a
caller-supplied layering such as the paper's Fig. 9 stage plan.

The registry's declarations are the single source of truth: process
edges are never wired by hand here, they come from
:func:`repro.core.dependencies.build_process_graph`, the same
derivation ``repro-lint``'s schedule check trusts.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.dependencies import Dag, build_process_graph
from repro.core.registry import PROCESSES
from repro.errors import DependencyError, StageOrderError, VerificationError

#: Per-task strategies.  ``seq`` and ``task`` members are plain calls
#: (run inline, or as one task of a concurrent group); ``loop`` and
#: ``temp_folders`` members parallelize *inside* the process over its
#: data units; ``custom`` members carry their own callable.
SEQ = "seq"
TASK = "task"
LOOP = "loop"
TEMP_FOLDERS = "temp_folders"
CUSTOM = "custom"

#: Region-level strategy of a fused barrier group (mixed member kinds
#: dispatched together, single barrier at the end).
FUSED = "fused"

_TASK_STRATEGIES = (SEQ, TASK, LOOP, TEMP_FOLDERS, CUSTOM)


@dataclass(frozen=True)
class Task:
    """One node of the execution DAG.

    Process tasks carry a ``pid`` and take their dependency edges from
    the registry declarations; custom tasks carry a ``run`` callable
    with the signature ``run(ctx, result)`` and only the edges the
    builder wires explicitly.
    """

    name: str
    strategy: str = SEQ
    pid: int | None = None
    run: Callable | None = field(default=None, compare=False)
    #: Strategy label shown on the task's stage span (custom tasks
    #: only; process tasks show their execution strategy).
    span_strategy: str | None = None
    #: Declared artifact-identity effects (custom tasks only; process
    #: tasks take theirs from the registry).  The graph verifier diffs
    #: these against what it infers from the callable's source.
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    #: An opaque task's body is not statically analyzable (it shells
    #: out, fans out to pool workers, ...); the verifier trusts the
    #: declared effects and says so instead of guessing.
    opaque: bool = False

    @property
    def is_process(self) -> bool:
        return self.pid is not None

    @property
    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class Region:
    """One barrier group of the execution plan.

    All members are mutually independent (the graph validation
    enforces it), so the executor may run them concurrently; the region
    boundary is the barrier.
    """

    label: str
    tasks: tuple[Task, ...]
    strategy: str

    @property
    def process_ids(self) -> tuple[int, ...]:
        return tuple(t.pid for t in self.tasks if t.pid is not None)


def _region_strategy(tasks: Sequence[Task]) -> str:
    """Region-level strategy implied by its members."""
    strategies = {t.strategy for t in tasks}
    if strategies == {SEQ}:
        return SEQ
    if strategies == {TASK}:
        return "tasks"
    if len(tasks) == 1:
        return tasks[0].strategy
    if strategies <= {TASK, SEQ}:
        return "tasks"
    return FUSED


class TaskGraph:
    """An immutable task DAG plus the layering/validation toolkit."""

    def __init__(self, tasks: Sequence[Task], edges: Iterable[tuple[str, str]]) -> None:
        self._tasks: dict[str, Task] = {t.name: t for t in tasks}
        self._order: tuple[str, ...] = tuple(t.name for t in tasks)
        graph = Dag("task graph")
        for task in tasks:
            graph.add_node(task.name)
        for a, b in edges:
            graph.add_edge(a, b)
        self._generations = graph.generations()  # raises on a cycle
        self._graph = graph

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    @property
    def tasks(self) -> tuple[Task, ...]:
        """Tasks in insertion order."""
        return tuple(self._tasks[name] for name in self._order)

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise DependencyError(f"no task named {name!r} in this graph") from None

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._graph.edges)

    def has_edge(self, a: str, b: str) -> bool:
        return self._graph.has_edge(a, b)

    def process_ids(self) -> tuple[int, ...]:
        return tuple(t.pid for t in self.tasks if t.pid is not None)

    def predecessors(self, name: str) -> tuple[str, ...]:
        return self._graph.predecessors(name)

    # -- layering ----------------------------------------------------------

    def layers(self) -> list[list[Task]]:
        """Antichain layers (topological generations) of the DAG.

        Within a layer, insertion order is kept so derived plans are
        deterministic.
        """
        position = {name: i for i, name in enumerate(self._order)}
        return [
            [self._tasks[name] for name in sorted(generation, key=position.__getitem__)]
            for generation in self._generations
        ]

    def derive_regions(self, prefix: str = "G") -> list[Region]:
        """Barrier plan straight from the dependency layering.

        This is the engine-native schedule: as many barriers as the
        declarations require, none that they don't.
        """
        return [
            Region(
                label=f"{prefix}{i + 1}",
                tasks=tuple(layer),
                strategy=_region_strategy(layer),
            )
            for i, layer in enumerate(self.layers())
        ]

    # -- validation --------------------------------------------------------

    def validate_regions(self, regions: Sequence[Region]) -> None:
        """Raise unless ``regions`` is an executable barrier plan.

        Every task must appear exactly once, cross-region edges must
        point forward, and no edge may join two members of one region
        (members run concurrently, so they must be independent).  The
        one check of every barrier plan, the Fig. 9 stage plan included.
        """
        region_of: dict[str, int] = {}
        for idx, region in enumerate(regions):
            for task in region.tasks:
                if task.name not in self._tasks:
                    raise StageOrderError(
                        f"region {region.label} lists unknown task {task.name!r}"
                    )
                if task.name in region_of:
                    raise StageOrderError(
                        f"task {task.name} appears in more than one region"
                    )
                region_of[task.name] = idx
        missing = [name for name in self._order if name not in region_of]
        if missing:
            raise StageOrderError(f"plan does not schedule tasks: {missing}")
        for a, b in self._graph.edges:
            if region_of[a] > region_of[b]:
                raise StageOrderError(
                    f"plan runs {b} (region {regions[region_of[b]].label}) before "
                    f"its dependency {a} (region {regions[region_of[a]].label})"
                )
            if region_of[a] == region_of[b]:
                raise StageOrderError(
                    f"region {regions[region_of[a]].label} contains dependent "
                    f"tasks {a} -> {b}; region members must be independent"
                )

    # -- fusion ------------------------------------------------------------

    def fusible(self, earlier: Region, later: Region) -> bool:
        """Whether two adjacent regions may merge into one barrier group.

        True when no dependency edge joins any member of ``earlier`` to
        any member of ``later`` — exactly the condition behind the
        ``repro-lint`` "could start concurrently" advisory.
        """
        return not any(
            self._graph.has_edge(a.name, b.name)
            for a in earlier.tasks
            for b in later.tasks
        )

    def fuse_regions(self, regions: Sequence[Region]) -> list[Region]:
        """Greedily merge adjacent fusible regions (left to right).

        A merge is taken only when the combined region stays internally
        edge-free against *every* already-absorbed member, so chains
        stop exactly where a real dependency begins.  Labels join with
        ``+`` (``II+III``), keeping fused stage spans self-describing;
        the joined components are ordered by the layer the plan
        schedules them in, then by name, so lint reports and fused span
        names are byte-stable across runs regardless of how the caller
        assembled the region list.
        """
        layer_of = {region.label: index for index, region in enumerate(regions)}

        def joined_label(group: Sequence[Region]) -> str:
            ordered = sorted(
                group, key=lambda r: (layer_of.get(r.label, len(layer_of)), r.label)
            )
            return "+".join(r.label for r in ordered)

        fused: list[Region] = []
        groups: list[list[Region]] = []
        for region in regions:
            if fused and self.fusible(fused[-1], region):
                fused.pop()
                group = groups.pop() + [region]
                members = tuple(t for r in group for t in r.tasks)
                fused.append(
                    Region(
                        label=joined_label(group),
                        tasks=members,
                        strategy=_region_strategy(members),
                    )
                )
                groups.append(group)
            else:
                fused.append(region)
                groups.append([region])
        return fused


class PipelineBuilder:
    """Compose a pipeline as tasks plus dependency declarations.

    Process tasks wire themselves: their edges are derived from the
    registry's versioned read/write declarations at :meth:`build` time.
    Custom tasks (arbitrary callables) are wired explicitly with
    ``after=`` or :meth:`after`.

        builder = PipelineBuilder(name="my-pipeline")
        builder.add_processes([0, 1, 2, 3], strategy="seq")
        check = builder.add_task("qc", run_quality_checks, after=["P3"])
        graph = builder.build()

    The builder is write-only state; :meth:`build` returns the
    immutable :class:`TaskGraph` the executor (and the scheduling
    policies) consume.
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self._tasks: dict[str, Task] = {}
        self._sites: dict[str, str] = {}
        self._explicit_edges: set[tuple[str, str]] = set()

    @staticmethod
    def _registration_site() -> str:
        """The caller's ``file:line``, skipping frames of this module."""
        for frame in reversed(traceback.extract_stack()[:-1]):
            if not frame.filename.endswith(("engine/graph.py", "engine\\graph.py")):
                return f"{frame.filename}:{frame.lineno}"
        return "<unknown>"

    def _add(self, task: Task) -> Task:
        site = self._registration_site()
        if task.name in self._tasks:
            raise DependencyError(
                f"duplicate task name {task.name!r}: first registered at "
                f"{self._sites[task.name]}, registered again at {site}"
            )
        self._tasks[task.name] = task
        self._sites[task.name] = site
        return task

    def _resolve_name(self, ref: "Task | str | int") -> str:
        if isinstance(ref, Task):
            name = ref.name
        elif isinstance(ref, int):
            name = f"P{ref}"
        else:
            name = str(ref)
        if name not in self._tasks:
            raise DependencyError(f"unknown task {name!r}; add it before wiring")
        return name

    # -- adding tasks ------------------------------------------------------

    def add_process(
        self,
        pid: int,
        *,
        strategy: str = SEQ,
        after: Sequence["Task | str | int"] = (),
    ) -> Task:
        """Add registry process ``pid`` as a task named ``P<pid>``.

        Dependency edges against other process tasks come from the
        registry declarations automatically; ``after=`` adds explicit
        edges on top (typically against custom tasks).
        """
        if pid not in PROCESSES:
            known = sorted(PROCESSES)
            raise DependencyError(f"unknown process id {pid}; known: {known}")
        if strategy not in _TASK_STRATEGIES or strategy == CUSTOM:
            raise DependencyError(
                f"invalid process strategy {strategy!r}; "
                f"choose from {_TASK_STRATEGIES[:-1]}"
            )
        task = self._add(Task(name=f"P{pid}", strategy=strategy, pid=pid))
        for upstream in after:
            self.after(upstream, task)
        return task

    def add_processes(
        self,
        pids: Iterable[int],
        *,
        strategy: str = SEQ,
        strategies: dict[int, str] | None = None,
    ) -> list[Task]:
        """Add many registry processes; ``strategies`` overrides per pid."""
        overrides = strategies or {}
        return [
            self.add_process(pid, strategy=overrides.get(pid, strategy))
            for pid in pids
        ]

    def add_task(
        self,
        name: str,
        run: Callable,
        *,
        after: Sequence["Task | str | int"] = (),
        span_strategy: str | None = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
        opaque: bool = False,
    ) -> Task:
        """Add a custom task: ``run(ctx, result)`` called at execution.

        Custom tasks only get the edges you declare (``after=`` /
        :meth:`after`); the registry knows nothing about them.
        ``span_strategy`` labels the task's stage span (default
        ``custom``).

        ``reads``/``writes`` declare the task's artifact-identity
        effects (``"comp_v2"``, ``"filter_params"``, ...) so the graph
        verifier (:mod:`repro.analysis.graphlint`) can prove the plan
        race-free and diff the declarations against the effects it
        infers from the callable's source.  ``opaque=True`` marks a
        body the verifier cannot analyze (worker fan-out, subprocesses);
        its declared effects are then taken on trust and reported as
        such rather than guessed at.
        """
        task = self._add(
            Task(
                name=str(name),
                strategy=CUSTOM,
                run=run,
                span_strategy=span_strategy,
                reads=tuple(reads),
                writes=tuple(writes),
                opaque=bool(opaque),
            )
        )
        for upstream in after:
            self.after(upstream, task)
        return task

    # -- wiring ------------------------------------------------------------

    def after(self, upstream: "Task | str | int", downstream: "Task | str | int") -> None:
        """Declare that ``downstream`` must wait for ``upstream``."""
        a = self._resolve_name(upstream)
        b = self._resolve_name(downstream)
        if a == b:
            raise DependencyError(f"task {a!r} cannot depend on itself")
        self._explicit_edges.add((a, b))

    # -- introspection -----------------------------------------------------

    def pending_tasks(self) -> tuple[Task, ...]:
        """Tasks added so far, in registration order (pre-build view)."""
        return tuple(self._tasks.values())

    def pending_edges(self) -> set[tuple[str, str]]:
        """All edges :meth:`build` would wire: explicit plus derived.

        Exposed so the graph verifier can diagnose a cyclic or
        inconsistent builder without :meth:`build` raising first.
        """
        edges: set[tuple[str, str]] = set(self._explicit_edges)
        pids = [t.pid for t in self._tasks.values() if t.pid is not None]
        if pids:
            process_graph = build_process_graph(pids)
            for a, b in process_graph.edges:
                edges.add((f"P{a}", f"P{b}"))
        return edges

    def registration_site(self, name: str) -> str | None:
        """Where (``file:line``) the named task was added, if known."""
        return self._sites.get(name)

    # -- building ----------------------------------------------------------

    def build(self, *, verify: bool = False) -> TaskGraph:
        """Derive all edges and return the immutable graph.

        With ``verify=True`` the built graph (under its derived barrier
        layering) is additionally run through the graph verifier
        (:func:`repro.analysis.graphlint.verify_graph`); error findings
        raise :class:`~repro.errors.VerificationError` listing every
        counterexample instead of letting an unsound pipeline execute.
        """
        graph = TaskGraph(list(self._tasks.values()), self.pending_edges())
        if verify:
            from repro.analysis.graphlint import verify_graph
            from repro.analysis.model import ERROR

            errors = [f for f in verify_graph(graph) if f.severity == ERROR]
            if errors:
                details = "\n".join(f"  - {f.message}" for f in errors)
                raise VerificationError(
                    f"pipeline {self.name!r} failed graph verification "
                    f"({len(errors)} error(s)):\n{details}"
                )
        return graph
