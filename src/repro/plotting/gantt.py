"""Gantt rendering of simulated schedules and measured traces.

One row per logical processor, one shaded rectangle per task placement,
stage-keyed gray levels and a time axis — the picture that explains
*why* stage IX speeds up 5x while stage X saturates at 1.5x.  The same
renderer draws both sources: a :class:`SimulationResult` from the
machine simulator, or (via :func:`plot_trace_gantt`) a real run's span
trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.parallel.simulate import SimulationResult
from repro.plotting.ps import PAGE_HEIGHT, PAGE_WIDTH, PostScriptCanvas

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observability.tracer import Trace

_MARGIN = 54.0


def _stage_grays(stages: list[str]) -> dict[str, float]:
    """Deterministic gray assignment over the distinct stages."""
    unique = sorted(set(stages))
    if not unique:
        return {}
    if len(unique) == 1:
        return {unique[0]: 0.4}
    return {
        stage: 0.15 + 0.7 * i / (len(unique) - 1) for i, stage in enumerate(unique)
    }


def plot_schedule_gantt(
    path: Path | str, result: SimulationResult, *, title: str = "simulated schedule"
) -> None:
    """Render a simulated schedule as a Gantt chart, one PS page."""
    if not result.placements:
        raise ReproError("cannot render an empty schedule")
    canvas = PostScriptCanvas(title=title)
    makespan = result.makespan_s
    workers = sorted({p.worker for p in result.placements})
    grays = _stage_grays([p.stage for p in result.placements])

    x0 = _MARGIN + 18
    width = PAGE_WIDTH - x0 - _MARGIN
    y_top = PAGE_HEIGHT - _MARGIN - 20
    row_h = min(24.0, (y_top - _MARGIN - 40) / max(len(workers), 1))

    canvas.text(PAGE_WIDTH / 2, PAGE_HEIGHT - _MARGIN, title, size=12, align="center")
    canvas.set_line_width(0.5)
    for i, worker in enumerate(workers):
        ry = y_top - (i + 1) * row_h
        canvas.set_gray(0.0)
        canvas.text(x0 - 6, ry + row_h / 2 - 3, f"LP{worker}", size=7, align="right")
        canvas.rect(x0, ry, width, row_h)
    for p in result.placements:
        i = workers.index(p.worker)
        ry = y_top - (i + 1) * row_h
        bx = x0 + (p.start_s / makespan) * width
        bw = max(((p.finish_s - p.start_s) / makespan) * width, 0.3)
        canvas.set_gray(grays.get(p.stage, 0.5))
        canvas.rect(bx, ry + 1, bw, row_h - 2, fill=True)
        canvas.set_gray(0.0)
        canvas.rect(bx, ry + 1, bw, row_h - 2)

    # Time axis and legend.
    axis_y = y_top - len(workers) * row_h - 16
    canvas.set_gray(0.0)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = x0 + frac * width
        canvas.line(tx, axis_y + 10, tx, axis_y + 14)
        canvas.text(tx, axis_y, f"{frac * makespan:.1f}s", size=7, align="center")
    legend_y = axis_y - 18
    legend_x = x0
    for stage, gray in sorted(grays.items()):
        canvas.set_gray(gray)
        canvas.rect(legend_x, legend_y, 10, 6, fill=True)
        canvas.set_gray(0.0)
        canvas.rect(legend_x, legend_y, 10, 6)
        canvas.text(legend_x + 13, legend_y, stage or "(none)", size=7)
        legend_x += 14 + 7 * max(len(stage), 4)
        if legend_x > x0 + width - 60:
            legend_x = x0
            legend_y -= 11
    canvas.save(path)


def plot_trace_gantt(
    path: Path | str,
    trace: "Trace",
    *,
    title: str = "measured trace",
    kinds: tuple[str, ...] | None = None,
) -> None:
    """Render a measured span trace as a Gantt chart.

    Rows are the workers that actually executed spans (threads, pool
    processes); bars are the trace's work spans, picked by ``kinds`` or
    auto-selected at the most granular level present (chunk/task, then
    process, then stage).
    """
    from repro.observability.export import to_simulation_result

    result = to_simulation_result(trace, kinds=kinds)
    if not result.placements:
        raise ReproError("trace has no work spans to render")
    plot_schedule_gantt(path, result, title=title)
