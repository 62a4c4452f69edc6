"""Input/output dependency analysis of the process graph.

Builds, from the registry's versioned read/write declarations, the
directed dependency graph over any subset of processes and offers the
validations and discovery tools the paper's reordering relied on:

- :class:`Dag` — the small directed acyclic graph both this module and
  :mod:`repro.engine.graph` build: nodes and successors in insertion
  order, edge data dicts, topological generations with a cycle check;
- :func:`build_process_graph` — RAW, WAR and WAW edges as a :class:`Dag`
  (edge attribute ``kind``);
- :func:`validate_sequential_order` — check a linear order (the
  original 0..19 numbering, the optimized 17-process order);
- :func:`parallelizable_sets` — the antichain layering (graph
  "generations"): the maximal sets of processes that could run
  concurrently, which is how the stage plan of Fig. 9 is discovered.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable
from typing import Any

from repro.core.registry import LATEST, PROCESSES, ProcessSpec
from repro.errors import DependencyError, StageOrderError


class Dag:
    """A directed graph that must stay acyclic, small enough to read.

    Nodes, and each node's successors, keep insertion order, so every
    view below is deterministic.  :attr:`edges` maps ``(a, b)`` to the
    edge's data dict, ordered by source and then by target.  The graphs
    built here have at most a few dozen nodes, so views are built on
    each access rather than cached.
    """

    def __init__(self, name: str = "graph") -> None:
        #: Names the graph in the cycle error (``"process graph"``).
        self.name = name
        self._succ: dict[Hashable, dict[Hashable, dict[str, Any]]] = {}
        self._pred: dict[Hashable, dict[Hashable, None]] = {}

    def add_node(self, node: Hashable) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, a: Hashable, b: Hashable, **data: Any) -> None:
        """Add ``a -> b`` (and any missing end); re-adding updates its data."""
        self.add_node(a)
        self.add_node(b)
        self._succ[a].setdefault(b, {}).update(data)
        self._pred[b][a] = None

    def has_edge(self, a: Hashable, b: Hashable) -> bool:
        return a in self._succ and b in self._succ[a]

    def predecessors(self, node: Hashable) -> tuple[Hashable, ...]:
        return tuple(self._pred[node])

    @property
    def nodes(self) -> tuple[Hashable, ...]:
        return tuple(self._succ)

    def number_of_nodes(self) -> int:
        return len(self._succ)

    @property
    def edges(self) -> dict[tuple[Hashable, Hashable], dict[str, Any]]:
        return {
            (a, b): data for a, succ in self._succ.items() for b, data in succ.items()
        }

    def generations(self) -> list[list[Hashable]]:
        """Topological generations (Kahn): layer k holds the nodes whose
        longest chain of predecessors has k edges.

        Raises :class:`DependencyError` naming one cycle if there is one.
        """
        indegree = {node: len(preds) for node, preds in self._pred.items()}
        layer = [node for node, degree in indegree.items() if degree == 0]
        layers = []
        while layer:
            layers.append(layer)
            following = []
            for node in layer:
                for child in self._succ[node]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        following.append(child)
            layer = following
        if sum(map(len, layers)) < len(indegree):
            raise DependencyError(f"{self.name} has a cycle: {self._cycle(indegree)}")
        return layers

    def _cycle(self, indegree: dict[Hashable, int]) -> list[tuple[Hashable, Hashable]]:
        """Edges of one cycle among the nodes Kahn could not layer.

        Each such node keeps an unlayered predecessor, so walking back
        through them must revisit a node; the revisited stretch is a cycle.
        """
        node = next(n for n, degree in indegree.items() if degree > 0)
        path: list[Hashable] = []
        seen: dict[Hashable, int] = {}
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = next(p for p in self._pred[node] if indegree[p] > 0)
        cycle = path[seen[node]:][::-1]
        return list(zip(cycle, cycle[1:] + cycle[:1]))


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


def build_process_graph(pids: list[int] | tuple[int, ...]) -> Dag:
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

    graph = Dag("process graph")
    for spec in specs:
        graph.add_node(spec.pid)

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

    graph.generations()  # raises on a cycle
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
    return [sorted(generation) for generation in graph.generations()]

