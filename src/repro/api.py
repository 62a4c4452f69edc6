"""The one-call public API.

:func:`run` is the library's front door: point it at a workspace
directory (or hand it a synthetic :class:`~repro.synth.events.EventSpec`
to generate first), pick a scheduling policy and a backend, and get a
:class:`~repro.core.runner.PipelineResult` back — optionally with the
full span trace attached and exported as Chrome Trace Event JSON.

    import repro

    result = repro.run("my-workspace")                       # existing V1 files
    result = repro.run(event, workspace="out", trace=True)   # synthetic event
    result = repro.run("ws", policy="wavefront-parallel",
                       backend="process", workers=8,
                       trace="run.trace.json")

    builder = repro.PipelineBuilder(name="qc-only")          # custom graph
    builder.add_processes([0, 1, 2, 3])
    result = repro.run("ws", policy=builder)
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import RunContext, Workspace
from repro.core.context import ParallelSettings
from repro.core.runner import PipelineResult
from repro.engine.policy import resolve_policy
from repro.observability.tracer import Tracer
from repro.parallel.backend import Backend
from repro.synth.events import EventSpec


def run(
    source: str | Path | Workspace | RunContext | EventSpec,
    policy="full-parallel",
    *,
    backend: Backend | str | None = None,
    workers: int | None = None,
    trace: bool | str | Path | None = None,
    profile: bool | str | Path | None = None,
    events: bool = False,
    ledger: str | Path | None = None,
    workspace: str | Path | None = None,
    response_periods: int | None = None,
) -> PipelineResult:
    """Run the pipeline end-to-end under one scheduling policy.

    ``source`` selects the input:

    - a directory path (or :class:`Workspace`) whose ``input/`` holds
      the V1 records to process;
    - an :class:`EventSpec` — its synthetic dataset is generated first,
      into ``workspace`` (a temporary directory by default);
    - a fully-configured :class:`RunContext`, used as-is (``backend``,
      ``workers`` and ``response_periods`` must then be left unset).

    ``policy`` (also the second positional argument) selects the
    schedule:

    - a registered policy name (``repro.engine.policy_names()`` lists
      them: the paper's four schemes plus ``full-parallel-fused``,
      ``dag-parallel``, ``wavefront-parallel``, ...);
    - a :class:`~repro.engine.SchedulingPolicy` instance;
    - a user-built :class:`~repro.engine.PipelineBuilder` (or its
      :class:`~repro.engine.TaskGraph`), executed by its derived
      dependency layering.

    ``backend`` and ``workers`` configure the run's one worker pool
    (:class:`~repro.core.context.ParallelSettings`), which runs its
    parallel loops, tasks and temp-folder tools alike.  ``trace=True``
    attaches the run's span :class:`~repro.observability.tracer.Trace`
    to the returned result; a path additionally writes it as Chrome
    Trace Event JSON.
    ``profile=True`` samples the run (driver threads and pool workers
    alike) and attaches the merged
    :class:`~repro.observability.profiling.Profile` as
    ``result.profile``; a path additionally writes it as speedscope
    JSON.

    ``events=True`` streams live lifecycle/telemetry events to the
    workspace's ``.events/`` log while the run executes — tail it with
    ``repro-top`` (see :mod:`repro.observability.events`).  ``ledger``
    appends the finished run to the SQLite run ledger at that path
    (see :mod:`repro.observability.ledger`); independent of it, setting
    the ``REPRO_LEDGER`` environment variable auto-appends every run.

    Returns the policy's :class:`PipelineResult` (with ``result.trace``
    / ``result.profile`` set when requested).
    """
    impl = resolve_policy(policy).pipeline()

    if isinstance(source, RunContext):
        if backend is not None or workers is not None or response_periods is not None:
            raise ValueError(
                "run(): a RunContext source carries its own settings; "
                "backend/workers/response_periods must be unset"
            )
        ctx = source
    else:
        if backend is None:
            backend = Backend.THREAD
        kwargs: dict = {"parallel": ParallelSettings(backend, num_workers=workers)}
        if response_periods is not None:
            from repro.spectra.response import ResponseSpectrumConfig, default_periods

            kwargs["response_config"] = ResponseSpectrumConfig(
                periods=default_periods(response_periods)
            )
        if isinstance(source, EventSpec):
            root = Path(
                workspace
                if workspace is not None
                else tempfile.mkdtemp(prefix=f"repro-run-{source.event_id}-")
            )
            ctx = RunContext.for_directory(root, **kwargs)
            if not ctx.workspace.input_stations():
                from repro.synth.dataset import generate_event_dataset

                generate_event_dataset(source, ctx.workspace.input_dir)
        elif isinstance(source, Workspace):
            ctx = RunContext(workspace=source.create(), **kwargs)
        else:
            ctx = RunContext.for_directory(Path(source), **kwargs)

    if trace or profile:
        # Profiling needs the tracer for span attribution, so asking
        # for a profile implies a trace on the result too.
        ctx.tracer = Tracer()
    if profile:
        from repro.observability.profiling import SamplingProfiler

        ctx.profiler = SamplingProfiler()
    if events:
        ctx.events = True

    result = impl.run(ctx)

    if ledger is not None:
        from repro.observability.ledger import RunLedger, run_entry

        RunLedger(ledger).append(run_entry(ctx, result))

    if trace and not isinstance(trace, bool):
        from repro.observability.export import write_chrome_trace

        if result.trace is not None:
            write_chrome_trace(trace, result.trace, profile=result.profile)
    if profile and not isinstance(profile, bool):
        from repro.observability.profiling import write_speedscope

        if result.profile is not None:
            write_speedscope(profile, result.profile, name=impl.name)
    return result
