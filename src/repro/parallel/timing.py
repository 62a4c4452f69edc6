"""Timing instrumentation shared by the runtime and the pipeline.

Every pipeline run produces per-process :class:`TaskRecord` entries and
per-stage :class:`StageTiming` aggregates; the benchmark harness reads
these to build the paper's tables.  A traced run carries the same
information — and more — as spans; :func:`stage_timings_from_trace`
projects a :class:`~repro.observability.tracer.Trace` back onto these
flat aggregates so both representations stay interchangeable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observability.tracer import Trace


class Timer:
    """Context manager measuring wall-clock time via ``perf_counter``."""

    def __init__(self) -> None:
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self.start


@dataclass(frozen=True)
class TaskRecord:
    """One timed unit of work (a pipeline process or loop body)."""

    name: str
    duration_s: float


@dataclass
class StageTiming:
    """Aggregated timing of one pipeline stage."""

    stage: str
    duration_s: float = 0.0
    tasks: list[TaskRecord] = field(default_factory=list)

    def add(self, record: TaskRecord) -> None:
        """Attach one task's timing to the stage."""
        self.tasks.append(record)

    @property
    def task_total_s(self) -> float:
        """Sum of member task durations (>= duration when parallel)."""
        return sum(t.duration_s for t in self.tasks)


def stage_timings_from_trace(trace: "Trace") -> list[StageTiming]:
    """Rebuild per-stage aggregates from a finished trace.

    Every ``stage`` span becomes one :class:`StageTiming` (duplicates,
    e.g. from a batch trace, accumulate); the work spans below it —
    ``process``, ``chunk`` and ``task`` — become its member
    :class:`TaskRecord` entries, attributed via their nearest enclosing
    stage span.
    """
    by_id = {span.span_id: span for span in trace.spans}

    def enclosing_stage(span) -> str | None:
        cursor = by_id.get(span.parent_id) if span.parent_id else None
        while cursor is not None:
            if cursor.kind == "stage":
                return cursor.name
            cursor = by_id.get(cursor.parent_id) if cursor.parent_id else None
        return None

    timings: dict[str, StageTiming] = {}
    for span in sorted(trace.spans, key=lambda s: s.start_s):
        if span.kind != "stage":
            continue
        timing = timings.setdefault(span.name, StageTiming(stage=span.name))
        timing.duration_s += span.duration_s
    for span in sorted(trace.spans, key=lambda s: s.start_s):
        if span.kind not in ("process", "chunk", "task"):
            continue
        stage = enclosing_stage(span)
        if stage is None:
            stage = str(span.attributes.get("stage", "")) or None
        if stage in timings:
            timings[stage].add(TaskRecord(name=span.name, duration_s=span.duration_s))
    return list(timings.values())
