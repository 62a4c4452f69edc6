"""Structured run telemetry: span tracing across the pipeline.

Every execution layer — the implementation drivers and the
OpenMP-shaped runtime — can open :class:`Span`\\ s on a
:class:`Tracer` attached to the :class:`~repro.core.context.RunContext`.
A finished run yields a :class:`Trace`: a tree

    run -> implementation -> stage -> process -> chunk/task

whose per-stage durations *are* the numbers the paper's Table I and
Figures 11-13 aggregate.  :mod:`repro.observability.export` renders a
trace as Chrome Trace Event JSON (``chrome://tracing`` / Perfetto), a
Prometheus-style metrics text dump, Gantt placements for
:func:`repro.plotting.gantt.plot_trace_gantt`, or a reconstructed
:class:`~repro.core.runner.PipelineResult` view.

:mod:`repro.observability.profiling` adds a cross-process sampling
profiler whose samples are attributed to the open spans (flamegraphs
via speedscope / collapsed-stack exports), and
:mod:`repro.observability.critpath` turns a finished trace into a
measured critical path, per-stage parallel efficiencies, and an
Amdahl / work-span speedup model (``repro-perf explain``).

The live side: :mod:`repro.observability.events` streams structured
run events from an executing pipeline (tail with ``repro-top``),
:mod:`repro.observability.ledger` keeps a persistent SQLite history of
finished runs (``repro-ledger``), and
:mod:`repro.observability.report_html` renders one self-contained HTML
report per run (``repro-report``).  Those three are tools, not run
telemetry: import them from their modules, since the package leaves
them (and ``sqlite3``) out of every pipeline process.
"""

from repro.observability.tracer import Span, Trace, Tracer, maybe_span, worker_label
from repro.observability.export import (
    pipeline_result_view,
    to_chrome_trace,
    to_prometheus_text,
    trace_placements,
    write_chrome_trace,
    write_metrics,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
)
from repro.observability.resources import (
    ResourceLog,
    ResourceSample,
    ResourceSampler,
    resources_available,
)
from repro.observability.profiling import (
    Profile,
    SamplingProfiler,
    profiling_session,
    write_collapsed,
    write_speedscope,
)
from repro.observability.critpath import (
    critical_path,
    critical_path_length,
    explain,
    render_explain,
    speedup_model,
    stage_stats,
)
from repro.observability.events import (
    read_events,
    validate_events,
    write_events,
)

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "maybe_span",
    "worker_label",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_prometheus_text",
    "trace_placements",
    "pipeline_result_view",
    "write_metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "ResourceLog",
    "ResourceSample",
    "ResourceSampler",
    "resources_available",
    "Profile",
    "SamplingProfiler",
    "profiling_session",
    "write_collapsed",
    "write_speedscope",
    "critical_path",
    "critical_path_length",
    "explain",
    "render_explain",
    "speedup_model",
    "stage_stats",
    "read_events",
    "validate_events",
    "write_events",
]
