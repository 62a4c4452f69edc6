"""Textual rendering of the pipeline's structure (Figs. 5 and 9).

Produces the machine-derived equivalents of the paper's two structure
figures: the per-process I/O table (Fig. 5) and the stage plan with
per-implementation strategies and dependency edges (Fig. 9), straight
from the registry and the dependency analysis — so the printed tables
are guaranteed to match what the code actually executes.
"""

from __future__ import annotations

from repro.bench.report import format_table
from repro.core.dependencies import build_process_graph, parallelizable_sets
from repro.core.registry import (
    OPTIMIZED_ORDER,
    ORIGINAL_ORDER,
    PROCESSES,
    REDUNDANT_PROCESSES,
)
from repro.core.stages import STAGES

_COST_LEGEND = {
    "light": "light",
    "heavy_io": "heavy I/O",
    "heavy_flops": "heavy FLOPS",
    "plotting": "plotting",
}


def render_process_table() -> str:
    """The Fig. 5 equivalent: every process with language, cost and I/O."""
    rows = []
    for pid in ORIGINAL_ORDER:
        spec = PROCESSES[pid]
        rows.append(
            (
                spec.label,
                spec.name,
                spec.lang,
                _COST_LEGEND[spec.cost],
                ", ".join(str(r) for r in spec.reads) or "-",
                ", ".join(str(w) for w in spec.writes),
                "yes" if pid in REDUNDANT_PROCESSES else "",
            )
        )
    return format_table(
        ("P", "process", "lang", "cost", "reads", "writes", "redundant"),
        rows,
    )


def render_stage_table() -> str:
    """The Fig. 9 equivalent: stages, strategies and dependency edges."""
    rows = []
    for stage in STAGES:
        members = ", ".join(f"P{pid}" for pid in stage.processes)
        rows.append(
            (
                stage.name,
                members,
                stage.partial_strategy,
                stage.full_strategy,
                stage.loop_unit or "-",
            )
        )
    table = format_table(
        ("stage", "processes", "partial", "full", "loop unit"), rows
    )
    graph = build_process_graph(OPTIMIZED_ORDER)
    edges = sorted(
        (a, b, graph.edges[a, b]["kind"], graph.edges[a, b]["artifact"])
        for a, b in graph.edges
    )
    edge_lines = [
        f"  P{a} -> P{b}  [{kind.upper():3s}] via {artifact}"
        for a, b, kind, artifact in edges
    ]
    layers = parallelizable_sets(OPTIMIZED_ORDER)
    layer_lines = [
        f"  layer {i}: " + ", ".join(f"P{pid}" for pid in layer)
        for i, layer in enumerate(layers)
    ]
    return "\n".join(
        [
            table,
            "",
            f"dependency edges ({len(edges)}):",
            *edge_lines,
            "",
            "antichain layers (maximal concurrency the dependencies allow):",
            *layer_lines,
        ]
    )


def render_pipeline_map() -> str:
    """Both tables, for ``repro-bench pipeline-map``."""
    return "\n\n".join(
        [
            "Process inventory (paper Fig. 5)",
            render_process_table(),
            "Stage plan and dependencies (paper Fig. 9)",
            render_stage_table(),
        ]
    )
