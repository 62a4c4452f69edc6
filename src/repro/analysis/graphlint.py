"""Graph-level verifier for arbitrary engine pipelines.

``repro-lint``'s original passes prove the *fixed* 20-process registry
safe; this module proves (or refutes) the same properties for any
:class:`~repro.engine.graph.TaskGraph` a user composes with the
:class:`~repro.engine.graph.PipelineBuilder`, custom tasks included:

- **effect conformance** — each custom task's declared reads/writes are
  diffed against what :mod:`repro.analysis.effects` infers from its
  callable's source (undeclared inferred effects are errors; declared
  effects the code never performs are warnings; ``opaque`` tasks are
  taken on trust and reported as such);
- **race freedom per region** — the name-template absorption argument
  of :mod:`repro.analysis.races` applied to every barrier region (the
  ``races`` check, which ``repro-lint`` runs over the paper's four
  schemes): every pair of concurrent units (loop units, temp
  folder instances, whole tasks) is proven write-disjoint, and every
  refutation is localized to a task pair with the colliding name
  patterns as counterexample;
- **ordering soundness** — plan validation (cycle, coverage,
  intra-region edges) plus unproducible-read detection: a task whose
  read has no producer scheduled before it either consumes pre-existing
  input (warning) or can never see the bytes it needs (error);
- **redundancy** — the dead-write / identical-recompute derivation of
  :mod:`repro.analysis.schedule_check` applied to the graph's process
  order, plus an identity-level dead-write screen for custom tasks;
- **fusion certificates** — each ``+``-labelled fused region is either
  certified conflict-free or rejected by the race counterexamples that
  landed in it.

The runtime side of the bargain is :func:`happens_before_findings`: the
executor records the barrier plan it ran
(:func:`repro.core.auditing.record_plan`), each audited access carries
its task attribution, and the plan's region index is a vector clock —
two accesses are ordered iff their epochs differ or they belong to one
task (or its barrier-ordered driver scope).  Any conflicting pair the
clock calls concurrent is an access the static proof claimed
impossible, and is reported as an error.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from repro.analysis.effects import EffectSet, infer_effects
from repro.analysis.model import ERROR, INFO, WARNING, Finding
from repro.analysis.races import (
    IDENTITY_ATOMS,
    UnitAccess,
    process_unit_models,
    unit_collisions,
)
from repro.analysis.schedule_check import derive_redundant
from repro.core.auditing import iter_events, load_plan
from repro.core.registry import PROCESSES
from repro.engine.graph import LOOP, TEMP_FOLDERS, Region, Task, TaskGraph
from repro.errors import DependencyError, PipelineError

#: Identities a pipeline may consume without producing: the raw input
#: records exist before any process runs.
EXTERNAL_INPUTS = frozenset({"raw_v1"})

CHECK = "graph"
#: The check name of race errors, which ``repro-lint``'s race pass collects.
RACES = "races"


# -- per-task effects --------------------------------------------------------


def task_effects(task: Task) -> tuple[EffectSet, list[Finding]]:
    """The identity-level effects of one task, plus conformance findings.

    Process tasks take their effects from the registry (already proven
    by the conformance pass).  Custom tasks are inferred from source
    and diffed against their builder declarations; the returned set is
    the union of both, so the race proof stays conservative even while
    a mis-declaration is being reported.
    """
    findings: list[Finding] = []
    if task.pid is not None:
        spec = PROCESSES[task.pid]
        effects = EffectSet(
            reads={ref.identity for ref in spec.reads},
            writes={ref.identity for ref in spec.writes},
        )
        return effects, findings

    declared = EffectSet(reads=set(task.reads), writes=set(task.writes))
    if task.opaque:
        findings.append(Finding(
            CHECK, INFO,
            "opaque task: declared effects "
            f"(reads {sorted(declared.reads)}, writes {sorted(declared.writes)}) "
            "taken on trust, body not analyzed",
            process=task.name,
        ))
        return declared, findings

    inferred = infer_effects(task.run) if task.run is not None else EffectSet()
    for why in inferred.unknowns:
        findings.append(Finding(
            CHECK, WARNING,
            f"effect inference incomplete: {why}",
            process=task.name,
        ))
    if not task.reads and not task.writes:
        if inferred.reads or inferred.all_writes():
            findings.append(Finding(
                CHECK, INFO,
                f"no declared effects; using inferred reads "
                f"{sorted(inferred.reads)}, writes {sorted(inferred.all_writes())}",
                process=task.name,
            ))
        return inferred, findings

    for identity in sorted(inferred.reads - declared.reads):
        findings.append(Finding(
            CHECK, ERROR,
            f"body reads {identity!r} but the task does not declare it",
            process=task.name,
        ))
    for identity in sorted(inferred.all_writes() - declared.writes):
        findings.append(Finding(
            CHECK, ERROR,
            f"body writes {identity!r} but the task does not declare it",
            process=task.name,
        ))
    if inferred.complete:
        for identity in sorted(declared.reads - inferred.reads):
            findings.append(Finding(
                CHECK, WARNING,
                f"declares a read of {identity!r} the body never performs",
                process=task.name,
            ))
        for identity in sorted(declared.writes - inferred.all_writes()):
            findings.append(Finding(
                CHECK, WARNING,
                f"declares a write of {identity!r} the body never performs",
                process=task.name,
            ))
    effects = EffectSet(
        reads=declared.reads | inferred.reads,
        writes=declared.writes | inferred.all_writes(),
        unknowns=list(inferred.unknowns),
    )
    return effects, findings


# -- unit models -------------------------------------------------------------


def _identity_atoms(identity: str, task: Task, findings: list[Finding]):
    atoms = IDENTITY_ATOMS.get(identity)
    if atoms is None:
        findings.append(Finding(
            CHECK, ERROR,
            f"unknown artifact identity {identity!r}; "
            f"known: {sorted(IDENTITY_ATOMS)}",
            process=task.name,
        ))
        return []
    return atoms


def _stage_name_of(pid: int, fallback: str) -> str:
    from repro.core.stages import STAGES

    for stage in STAGES:
        if pid in stage.processes:
            return stage.name
    return fallback


def task_units(
    task: Task, effects: EffectSet, findings: list[Finding]
) -> list[UnitAccess]:
    """The concurrent-unit model of one task, owner-namespaced.

    Loop/temp-folder process tasks contribute their keyed inner units
    plus a *driver residual*: the registry atoms the inner units do not
    already cover (work-list reads, post-barrier merges).  Everything
    else is a single unit.  Key classes are namespaced by task so two
    concurrent tasks over the same key class (two station loops) are
    compared with possibly-equal keys, which is exactly the situation
    a task graph can create and a single stage cannot.
    """
    reads = [a for i in sorted(effects.reads) for a in _identity_atoms(i, task, findings)]
    writes = [
        a for i in sorted(effects.writes | effects.deletes)
        for a in _identity_atoms(i, task, findings)
    ]
    if task.pid is not None and task.strategy in (LOOP, TEMP_FOLDERS):
        try:
            inner = process_unit_models(
                task.pid, task.strategy, _stage_name_of(task.pid, task.name)
            )
        except ValueError as exc:
            findings.append(Finding(CHECK, ERROR, str(exc), process=task.name))
            inner = []
        units = [
            UnitAccess(
                f"{task.name}:{unit.name}",
                f"{task.name}/{unit.key_class}",
                reads=unit.reads,
                writes=unit.writes,
            )
            for unit in inner
        ]
        covered = {a for unit in inner for a in unit.reads + unit.writes}
        driver = UnitAccess(
            f"{task.name}:driver",
            f"task-{task.name}",
            reads=[a for a in reads if a not in covered],
            writes=[a for a in writes if a not in covered],
        )
        if driver.reads or driver.writes:
            units.append(driver)
        return units
    return [UnitAccess(task.name, f"task-{task.name}", reads=reads, writes=writes)]


# -- the verifier ------------------------------------------------------------


def verify_graph(
    graph: TaskGraph, regions: list[Region] | None = None
) -> list[Finding]:
    """All findings for one graph under one barrier plan.

    With ``regions`` omitted the graph's own derived layering is
    verified — the plan :func:`repro.engine.executor.run_graph` would
    execute.  An empty error count is the proof; every error carries a
    task-pair (or task) counterexample.
    """
    findings: list[Finding] = []
    if regions is None:
        regions = graph.derive_regions()

    try:
        graph.validate_regions(regions)
    except PipelineError as exc:
        findings.append(Finding(CHECK, ERROR, f"invalid barrier plan: {exc}"))
        return findings

    effects: dict[str, EffectSet] = {}
    for task in graph.tasks:
        task_fx, task_findings = task_effects(task)
        effects[task.name] = task_fx
        findings.extend(task_findings)

    region_of = {
        task.name: index for index, region in enumerate(regions) for task in region.tasks
    }
    findings.extend(_unproducible_reads(graph, regions, region_of, effects))

    race_errors_by_region: dict[int, int] = defaultdict(int)
    for index, region in enumerate(regions):
        units: list[UnitAccess] = []
        for task in region.tasks:
            units.extend(task_units(task, effects[task.name], findings))
        for a, b, x, y, kind in unit_collisions(units):
            race_errors_by_region[index] += 1
            findings.append(Finding(
                RACES, ERROR,
                f"region {region.label}: units {a.name!r} and {b.name!r} may "
                f"{kind}-collide on {x.render()} vs {y.render()}",
            ))

    for index, region in enumerate(regions):
        if "+" not in region.label:
            continue
        if race_errors_by_region[index]:
            findings.append(Finding(
                CHECK, ERROR,
                f"fusion {region.label} rejected: "
                f"{race_errors_by_region[index]} conflict(s) among its members",
            ))
        else:
            findings.append(Finding(
                CHECK, INFO,
                f"fusion {region.label} certified: members pairwise "
                "conflict-free under the name-template model",
            ))

    findings.extend(_redundancy(graph, regions, region_of, effects))
    return findings


def _unproducible_reads(
    graph: TaskGraph,
    regions: list[Region],
    region_of: dict[str, int],
    effects: dict[str, EffectSet],
) -> list[Finding]:
    producers: dict[str, list[str]] = defaultdict(list)
    for task in graph.tasks:
        for identity in effects[task.name].writes | effects[task.name].deletes:
            producers[identity].append(task.name)
    findings: list[Finding] = []
    for task in graph.tasks:
        for identity in sorted(effects[task.name].reads):
            if identity in EXTERNAL_INPUTS:
                continue
            if identity in effects[task.name].writes | effects[task.name].deletes:
                continue  # self-produced: body order covers the read
            others = [p for p in producers.get(identity, []) if p != task.name]
            if not others:
                findings.append(Finding(
                    CHECK, WARNING,
                    f"reads {identity!r} which no task in this graph produces; "
                    "assumed pre-existing in the workspace",
                    process=task.name,
                ))
                continue
            earlier = [p for p in others if region_of[p] < region_of[task.name]]
            if not earlier:
                where = ", ".join(
                    f"{p} (region {regions[region_of[p]].label})" for p in others
                )
                findings.append(Finding(
                    CHECK, ERROR,
                    f"reads {identity!r} but every producer runs no earlier "
                    f"than it does: {where}; add an explicit ordering edge",
                    process=task.name,
                ))
    return findings


def _redundancy(
    graph: TaskGraph,
    regions: list[Region],
    region_of: dict[str, int],
    effects: dict[str, EffectSet],
) -> list[Finding]:
    findings: list[Finding] = []
    order = tuple(
        task.pid for region in regions for task in region.tasks if task.pid is not None
    )
    if len(order) > 1:
        for pid in derive_redundant(order):
            findings.append(Finding(
                CHECK, INFO,
                "redundant under the dead-write/identical-recompute rules: "
                "removing it leaves every read the same bytes",
                process=f"P{pid}",
            ))
    # Identity-level dead-write screen for custom tasks: every write is
    # overwritten later with no intervening reader.
    for task in graph.tasks:
        if task.pid is not None or task.opaque:
            continue
        writes = effects[task.name].writes | effects[task.name].deletes
        if not writes or not effects[task.name].complete:
            continue
        if all(
            _write_is_dead(identity, task.name, graph, region_of, effects)
            for identity in writes
        ):
            findings.append(Finding(
                CHECK, INFO,
                "every write is overwritten before any task reads it; "
                "the task appears redundant",
                process=task.name,
            ))
    return findings


def _write_is_dead(
    identity: str,
    writer: str,
    graph: TaskGraph,
    region_of: dict[str, int],
    effects: dict[str, EffectSet],
) -> bool:
    epoch = region_of[writer]
    later_writers = [
        t.name for t in graph.tasks
        if t.name != writer
        and identity in (effects[t.name].writes | effects[t.name].deletes)
        and region_of[t.name] > epoch
    ]
    if not later_writers:
        return False
    next_rewrite = min(region_of[name] for name in later_writers)
    return not any(
        t.name != writer
        and identity in effects[t.name].reads
        and epoch < region_of[t.name] <= next_rewrite
        for t in graph.tasks
    )


# -- entry points over builders and policies ---------------------------------


def verify_builder(builder, regions: list[Region] | None = None) -> list[Finding]:
    """Verify a :class:`PipelineBuilder` without letting it raise.

    A cyclic wiring is reported as an error finding (with the cycle as
    counterexample) instead of propagating ``DependencyError``, so one
    call gives a complete report for any builder state.
    """
    try:
        graph = builder.build()
    except DependencyError as exc:
        return [Finding(CHECK, ERROR, f"builder {builder.name!r}: {exc}")]
    return verify_graph(graph, regions)


def verify_policy(policy) -> list[Finding]:
    """Verify a policy's plan (name, instance, builder or graph).

    Every registered policy exposes its plan without a run context.  A
    plan that cannot even be built (an unknown stage strategy, a
    cyclic wiring) is reported as an error finding, so ``--strict``
    never passes a policy that cannot run.
    """
    from repro.engine.policy import resolve_policy

    resolved = resolve_policy(policy)
    try:
        graph, regions = resolved.plan(None)
    except PipelineError as exc:
        return [Finding(
            CHECK, ERROR, f"policy {resolved.name!r} has no valid plan: {exc}"
        )]
    return verify_graph(graph, regions)


def race_findings() -> list[Finding]:
    """The race proof of the paper's four schemes: the race errors the
    verifier finds in their plans (none, when the proof holds)."""
    from repro.engine.policy import PAPER_POLICIES

    return [
        Finding(RACES, ERROR, f"policy {name!r}: {f.message}")
        for name in PAPER_POLICIES
        for f in verify_policy(name)
        if f.check == RACES
    ]


# -- happens-before runtime cross-check --------------------------------------


def happens_before_findings(root: Path | str) -> list[Finding]:
    """Check a recorded run's accesses against its recorded plan.

    The executor stores the barrier plan it ran next to the audit logs;
    each region index is the epoch of every access its tasks performed.
    Two accesses are *ordered* iff their epochs differ (a barrier sits
    between them) or they belong to the same task and either shares a
    unit or touches the barrier-ordered driver scope.  Any remaining
    pair on one path with a write between them is concurrent-by-plan:
    an access the static race proof claimed impossible.
    """
    root = Path(root)
    plan = load_plan(root)
    if plan is None:
        return [Finding(
            CHECK, WARNING,
            f"no recorded plan under {root}; run an engine policy with "
            "auditing enabled to record one",
        )]
    epoch: dict[str, int] = {}
    labels: list[str] = []
    for index, region in enumerate(plan.get("regions", [])):
        labels.append(str(region.get("label", index)))
        for name in region.get("tasks", []):
            epoch[str(name)] = index

    by_path: dict[str, list] = defaultdict(list)
    mapped = 0
    for event in iter_events(root):
        if event.process is None:
            continue
        if event.process in epoch:
            mapped += 1
            by_path[event.path].append(event)

    findings: list[Finding] = []
    if not mapped:
        findings.append(Finding(
            CHECK, WARNING,
            f"plan {plan.get('policy', '?')!r} recorded but no audited access "
            "maps to its tasks; nothing to cross-check",
        ))
        return findings

    seen: set[tuple] = set()
    for path, events in sorted(by_path.items()):
        for i, a in enumerate(events):
            for b in events[i + 1:]:
                if a.op == "read" and b.op == "read":
                    continue
                if epoch[a.process] != epoch[b.process]:
                    continue  # a barrier orders the two epochs
                if a.process == b.process and (
                    a.unit == b.unit or a.unit == "-" or b.unit == "-"
                ):
                    continue  # program/barrier order within one task
                key = (path, a.process, a.unit, b.process, b.unit, a.op, b.op)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    CHECK, ERROR,
                    f"happens-before violation on {path}: {a.process}[{a.unit}] "
                    f"{a.op} and {b.process}[{b.unit}] {b.op} are concurrent in "
                    f"epoch {labels[epoch[a.process]]}",
                ))
    if not findings:
        findings.append(Finding(
            CHECK, INFO,
            f"happens-before clean: {mapped} access(es) across "
            f"{len(labels)} epoch(s) of plan {plan.get('policy', '?')!r}, "
            "0 pairs contradict the static proof",
        ))
    return findings
