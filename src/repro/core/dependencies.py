"""Input/output dependency analysis of the process graph.

Builds, from the registry's versioned read/write declarations, the
directed dependency graph over any subset of processes and offers the
validations and discovery tools the paper's reordering relied on:

- :func:`build_process_graph` — RAW, WAR and WAW edges as a networkx
  ``DiGraph`` (edge attribute ``kind``);
- :func:`validate_sequential_order` — check a linear order (the
  original 0..19 numbering, the optimized 17-process order);
- :func:`parallelizable_sets` — the antichain layering (graph
  "generations"): the maximal sets of processes that could run
  concurrently, which is how the stage plan of Fig. 9 is discovered.
"""

from __future__ import annotations

from collections import defaultdict

import networkx as nx

from repro.core.registry import LATEST, PROCESSES, ProcessSpec
from repro.errors import DependencyError, StageOrderError


def _resolve_reads(
    spec: ProcessSpec, versions_present: dict[str, list[int]]
) -> list[tuple[str, int]]:
    """Resolve a process's reads against the versions the subset writes.

    LATEST resolves to the newest written version; reads of inputs no
    process writes (the raw V1 files) resolve to version 0, i.e. the
    pre-existing external input.  A declared version *newer* than any
    the subset writes means the writer was optimized away, so the read
    falls back to the newest available; a declared version *older* than
    one the subset writes has no such reading — the dependency cannot
    be satisfied and :class:`DependencyError` is raised.
    """
    resolved = []
    for ref in spec.reads:
        versions = versions_present.get(ref.identity, [])
        if ref.version == LATEST:
            resolved.append((ref.identity, max(versions) if versions else 0))
        elif ref.version in versions:
            resolved.append((ref.identity, ref.version))
        elif not versions:
            # Nothing in the subset writes this identity: an external
            # input, kept at the declared version.
            resolved.append((ref.identity, ref.version))
        elif ref.version > max(versions):
            # Declared version absent from this subset (its writer was
            # optimized away); fall back to the newest available.
            resolved.append((ref.identity, max(versions)))
        else:
            raise DependencyError(
                f"{spec.label} reads {ref.identity}#{ref.version} but this "
                f"subset only writes versions {sorted(versions)}"
            )
    return resolved


def build_process_graph(pids: list[int] | tuple[int, ...]) -> nx.DiGraph:
    """Dependency DAG over the given process subset.

    Nodes are pids; edges carry ``kind`` in {"raw", "war", "waw"} and
    ``artifact`` naming the file class that induces them.
    """
    specs = []
    for pid in pids:
        if pid not in PROCESSES:
            raise DependencyError(f"unknown process id {pid}")
        specs.append(PROCESSES[pid])
    if len({s.pid for s in specs}) != len(specs):
        raise DependencyError("duplicate process ids in subset")

    writers: dict[tuple[str, int], int] = {}
    versions_present: dict[str, list[int]] = defaultdict(list)
    for spec in specs:
        for ref in spec.writes:
            key = (ref.identity, ref.version)
            if key in writers:
                raise DependencyError(
                    f"both P{writers[key]} and {spec.label} write {ref}"
                )
            writers[key] = spec.pid
            versions_present[ref.identity].append(ref.version)

    graph = nx.DiGraph()
    for spec in specs:
        graph.add_node(spec.pid, spec=spec)

    readers: dict[tuple[str, int], list[int]] = defaultdict(list)
    for spec in specs:
        for identity, version in _resolve_reads(spec, versions_present):
            readers[(identity, version)].append(spec.pid)
            producer = writers.get((identity, version))
            if producer is not None and producer != spec.pid:
                graph.add_edge(producer, spec.pid, kind="raw", artifact=identity)

    # WAW and WAR edges between consecutive versions.
    for identity, versions in versions_present.items():
        ordered = sorted(versions)
        for earlier, later in zip(ordered, ordered[1:]):
            w_early = writers[(identity, earlier)]
            w_late = writers[(identity, later)]
            graph.add_edge(w_early, w_late, kind="waw", artifact=identity)
            for reader in readers.get((identity, earlier), []):
                if reader != w_late:
                    graph.add_edge(reader, w_late, kind="war", artifact=identity)

    if not nx.is_directed_acyclic_graph(graph):
        cycle = nx.find_cycle(graph)
        raise DependencyError(f"process graph has a cycle: {cycle}")
    return graph


def validate_sequential_order(order: list[int] | tuple[int, ...]) -> None:
    """Raise unless the linear order satisfies every dependency."""
    graph = build_process_graph(list(order))
    position = {pid: i for i, pid in enumerate(order)}
    for a, b in graph.edges:
        if position[a] >= position[b]:
            data = graph.edges[a, b]
            raise StageOrderError(
                f"order runs P{b} before its {data['kind'].upper()} "
                f"dependency P{a} (artifact {data['artifact']})"
            )


def parallelizable_sets(pids: list[int] | tuple[int, ...]) -> list[list[int]]:
    """Antichain layers of the dependency DAG (topological generations).

    Layer k holds the processes whose longest dependency chain has
    length k; all members of a layer are mutually independent and could
    run concurrently.  This is the discovery step behind the paper's
    11-stage reordering.
    """
    graph = build_process_graph(list(pids))
    return [sorted(generation) for generation in nx.topological_generations(graph)]

