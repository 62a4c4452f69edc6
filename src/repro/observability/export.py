"""Trace exporters.

Three consumers, one substrate:

- :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome Trace
  Event JSON (the ``chrome://tracing`` / Perfetto format, "X" complete
  events on one row per worker);
- :func:`to_prometheus_text` — a flat Prometheus-style text dump of the
  aggregate gauges (run/stage durations, span counts, per-stage work);
- :func:`trace_placements` — the measured trace as the
  :class:`~repro.parallel.simulate.TaskPlacement` rows the Gantt
  plotter draws, making :func:`repro.plotting.gantt.plot_trace_gantt`
  work on real runs exactly as on simulated schedules;
- :func:`pipeline_result_view` — a
  :class:`~repro.core.runner.PipelineResult` reconstructed purely from
  spans, so the bench tables are a *view over the trace*.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.observability.tracer import Span, Trace
from repro.parallel.simulate import SimulationResult, TaskPlacement

#: Kinds that represent actual work placed on a worker, most granular
#: first; the Gantt/placement view picks the first non-empty level.
WORK_KINDS = (("chunk", "task"), ("process",), ("stage",))


def _worker_ids(spans: list[Span]) -> dict[str, int]:
    """Stable worker-label -> small-integer mapping (first-seen order)."""
    ids: dict[str, int] = {}
    for span in sorted(spans, key=lambda s: (s.start_s, s.span_id)):
        if span.worker not in ids:
            ids[span.worker] = len(ids)
    return ids


def _ancestor_of_kind(by_id: dict[int, Span], span: Span, kind: str) -> Span | None:
    """Nearest enclosing span of ``kind`` (the span itself excluded)."""
    cursor = by_id.get(span.parent_id) if span.parent_id else None
    while cursor is not None:
        if cursor.kind == kind:
            return cursor
        cursor = by_id.get(cursor.parent_id) if cursor.parent_id else None
    return None


def _stage_of(by_id: dict[int, Span], span: Span) -> str:
    """Stage label of a work span: enclosing stage span, else attribute."""
    stage = _ancestor_of_kind(by_id, span, "stage")
    if stage is not None:
        return stage.name
    return str(span.attributes.get("stage", ""))


def to_chrome_trace(
    trace: Trace, resources: Any = None, profile: Any = None
) -> dict[str, Any]:
    """Render a trace in the Chrome Trace Event JSON format.

    Every span becomes one ``"ph": "X"`` (complete) event; workers map
    to ``tid`` rows named via ``thread_name`` metadata events.  Load
    the written file in ``chrome://tracing`` or https://ui.perfetto.dev.

    A :class:`~repro.observability.resources.ResourceLog` adds counter
    tracks (``"ph": "C"``): per-core busy fractions, RSS, open fds,
    thread count and the context-switch rate, on the same timeline as
    the spans — the samples were timestamped with the tracer's clock,
    so the core-utilization curve lines up under the stage bars.

    A :class:`~repro.observability.profiling.Profile` annotates each
    stage span with its hottest frames (``args["top_frames"]``), so
    clicking a stage bar shows where its CPU time went.
    """
    workers = _worker_ids(trace.spans)
    events: list[dict[str, Any]] = []
    for worker, tid in workers.items():
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": worker},
            }
        )
    for span in sorted(trace.spans, key=lambda s: (s.start_s, s.span_id)):
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(span.attributes)
        if profile is not None and span.kind == "stage":
            args["top_frames"] = [
                f"{frame} ({seconds:.3f}s, {count} samples)"
                for frame, seconds, count in profile.top_frames(5, stage=span.name)
            ]
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": workers[span.worker],
                "name": span.name,
                "cat": span.kind,
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "args": args,
            }
        )
    if resources is not None:
        prev_switches: tuple[int, int] | None = None
        for sample in resources.samples:
            ts = sample.t_s * 1e6
            events.append(
                {
                    "ph": "C", "pid": 1, "tid": 0, "name": "cores_busy",
                    "ts": ts,
                    "args": {
                        f"cpu{i}": round(u, 3) for i, u in enumerate(sample.per_core)
                    },
                }
            )
            events.append(
                {
                    "ph": "C", "pid": 1, "tid": 0, "name": "rss_mb",
                    "ts": ts, "args": {"rss": round(sample.rss_bytes / 1e6, 2)},
                }
            )
            events.append(
                {
                    "ph": "C", "pid": 1, "tid": 0, "name": "process_state",
                    "ts": ts,
                    "args": {"open_fds": sample.open_fds, "threads": sample.n_threads},
                }
            )
            # The /proc counters are cumulative; the track plots the
            # per-interval increments, so preemption bursts (the
            # oversubscription signature) show as spikes.
            switches = (sample.vol_ctx_switches, sample.invol_ctx_switches)
            if prev_switches is not None:
                events.append(
                    {
                        "ph": "C", "pid": 1, "tid": 0, "name": "ctx_switches",
                        "ts": ts,
                        "args": {
                            "voluntary": max(0, switches[0] - prev_switches[0]),
                            "involuntary": max(0, switches[1] - prev_switches[1]),
                        },
                    }
                )
            prev_switches = switches
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"epoch_unix_s": trace.epoch, "producer": "repro.observability"},
    }


def write_chrome_trace(
    path: Path | str, trace: Trace, resources: Any = None, profile: Any = None
) -> Path:
    """Write :func:`to_chrome_trace` output to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            to_chrome_trace(trace, resources=resources, profile=profile), indent=1
        )
        + "\n"
    )
    return path


def _label_str(value: Any) -> str:
    """One Prometheus label value, with the reserved characters escaped."""
    text = str(value)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_prometheus_text(trace: Trace, metrics: Any = None) -> str:
    """Flat Prometheus exposition-format dump of the trace aggregates.

    With a :class:`~repro.observability.metrics.MetricsRegistry`, its
    counter/gauge/histogram families are appended after the span-derived
    gauges, giving one scrape-shaped document for the whole run.
    """
    lines: list[str] = []

    def gauge(name: str, help_text: str, samples: list[tuple[dict[str, Any], float]]) -> None:
        if not samples:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        for labels, value in samples:
            body = ",".join(f'{k}="{_label_str(v)}"' for k, v in labels.items())
            lines.append(f"{name}{{{body}}} {value:.6f}" if body else f"{name} {value:.6f}")

    runs = trace.by_kind("run")
    gauge(
        "repro_run_duration_seconds",
        "End-to-end wall-clock of one pipeline run.",
        [
            ({"implementation": r.attributes.get("implementation", r.name)}, r.duration_s)
            for r in runs
        ],
    )
    by_id = {s.span_id: s for s in trace.spans}
    stage_samples = []
    for span in trace.by_kind("stage"):
        run = span if span.kind == "run" else _ancestor_of_kind(by_id, span, "run")
        labels = {"stage": span.name}
        if run is not None:
            labels["implementation"] = run.attributes.get("implementation", run.name)
        stage_samples.append((labels, span.duration_s))
    gauge(
        "repro_stage_duration_seconds",
        "Elapsed wall-clock of one pipeline stage.",
        stage_samples,
    )

    counts: dict[str, int] = {}
    work: dict[str, tuple[int, float]] = {}
    for span in trace.spans:
        counts[span.kind] = counts.get(span.kind, 0) + 1
        if span.kind in ("chunk", "task"):
            stage = _stage_of(by_id, span)
            n, total = work.get(stage, (0, 0.0))
            work[stage] = (n + 1, total + span.duration_s)
    gauge(
        "repro_span_count",
        "Number of spans recorded, by kind.",
        [({"kind": kind}, float(n)) for kind, n in sorted(counts.items())],
    )
    gauge(
        "repro_stage_work_seconds_total",
        "Summed worker-occupancy of a stage's chunk/task spans.",
        [({"stage": stage}, total) for stage, (_, total) in sorted(work.items())],
    )
    gauge(
        "repro_stage_work_spans",
        "Number of chunk/task spans attributed to a stage.",
        [({"stage": stage}, float(n)) for stage, (n, _) in sorted(work.items())],
    )
    text = "\n".join(lines) + "\n"
    if metrics is not None:
        text += metrics.to_prometheus_text()
    return text


def write_metrics(path: Path | str, metrics: Any, trace: Trace | None = None) -> tuple[Path, Path]:
    """Write a merged registry as Prometheus text plus a JSON sibling.

    ``path`` names the text file (a ``.json`` path is rewritten to
    ``.prom``); the JSON twin lands next to it with a ``.json`` suffix
    and carries :meth:`MetricsRegistry.to_dict` — the machine-readable
    form the perf harness and tests consume.  With a ``trace``, the
    text side also includes the span-derived gauges.  Returns
    ``(text_path, json_path)``.
    """
    path = Path(path)
    if path.suffix == ".json":
        path = path.with_suffix(".prom")
    path.parent.mkdir(parents=True, exist_ok=True)
    text = (
        to_prometheus_text(trace, metrics=metrics)
        if trace is not None
        else metrics.to_prometheus_text()
    )
    path.write_text(text)
    json_path = path.with_suffix(".json")
    json_path.write_text(json.dumps(metrics.to_dict(), indent=1) + "\n")
    return path, json_path


def trace_placements(
    trace: Trace, *, kinds: tuple[str, ...] | None = None
) -> list[TaskPlacement]:
    """The trace's work spans as Gantt-ready placements.

    ``kinds`` picks which span kinds become bars; by default the most
    granular non-empty level of :data:`WORK_KINDS` wins (leaf work for
    parallel runs, per-process bars for sequential ones).  Start times
    are re-zeroed at the earliest selected span.
    """
    if kinds is None:
        for level in WORK_KINDS:
            selected = [s for s in trace.spans if s.kind in level]
            if selected:
                break
        else:
            selected = []
    else:
        selected = [s for s in trace.spans if s.kind in kinds]
    if not selected:
        return []
    by_id = {s.span_id: s for s in trace.spans}
    workers = _worker_ids(selected)
    t0 = min(s.start_s for s in selected)
    return [
        TaskPlacement(
            name=span.name,
            worker=workers[span.worker],
            start_s=span.start_s - t0,
            finish_s=span.end_s - t0,
            stage=_stage_of(by_id, span) or span.name,
        )
        for span in sorted(selected, key=lambda s: (s.start_s, s.span_id))
    ]


def to_simulation_result(trace: Trace, *, kinds: tuple[str, ...] | None = None) -> SimulationResult:
    """Wrap :func:`trace_placements` as a :class:`SimulationResult`.

    This is what lets every consumer of simulated schedules — the Gantt
    plotter first of all — render a *measured* trace unchanged.
    """
    placements = trace_placements(trace, kinds=kinds)
    makespan = max((p.finish_s for p in placements), default=0.0)
    return SimulationResult(makespan_s=makespan, placements=placements)


def pipeline_result_view(trace: Trace) -> "Any":
    """Reconstruct a :class:`~repro.core.runner.PipelineResult` from spans.

    Uses the first ``run`` span (raises on a trace without one): total
    from the run span, stage durations from its ``stage`` spans,
    process rows from the ``process`` spans.  On a traced run this view
    matches the result the implementation returned to within clock
    granularity — the tables are a projection of the trace.
    """
    # Imported here: repro.core imports this package at module level.
    from repro.core.runner import PipelineResult, ProcessTiming
    from repro.errors import ReproError

    runs = trace.by_kind("run")
    if not runs:
        raise ReproError("trace contains no 'run' span")
    run = runs[0]
    result = PipelineResult(
        implementation=str(run.attributes.get("implementation", run.name)),
        total_s=run.duration_s,
    )
    for span in trace.by_kind("stage"):
        result.stage_durations[span.name] = (
            result.stage_durations.get(span.name, 0.0) + span.duration_s
        )
    for span in trace.by_kind("process"):
        result.processes.append(
            ProcessTiming(
                pid=int(span.attributes.get("pid", -1)),
                name=span.name,
                stage=str(span.attributes.get("stage", "")),
                duration_s=span.duration_s,
            )
        )
    return result
