"""Command-line entry points.

``repro-process``
    Run the pipeline under one scheduling policy against a workspace,
    optionally generating a synthetic event dataset first.

``repro-bench``
    Regenerate the paper's evaluation artifacts (Table I, Figures
    11–13, the ablations) in model mode, or run the measured-mode
    wall-clock comparison.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import RunContext
from repro.core.context import ParallelSettings
from repro.engine import PAPER_POLICIES, pipeline_factory, policy_names
from repro.parallel.backend import Backend
from repro.spectra.response import ResponseSpectrumConfig, default_periods


def _build_process_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-process",
        description="Process a directory of V1 strong-motion records.",
    )
    parser.add_argument("workspace", help="workspace directory (input/ holds the .v1 files)")
    parser.add_argument(
        "--policy",
        "-i",
        default="full-parallel",
        choices=policy_names(),
        help="scheduling policy to run (choices come from the engine's "
        "policy registry)",
    )
    parser.add_argument(
        "--generate-event",
        metavar="EVENT_ID",
        help="generate this catalog event's synthetic dataset into input/ first",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="size scale for --generate-event"
    )
    parser.add_argument("--workers", type=int, default=None, help="parallel worker count")
    parser.add_argument(
        "--backend",
        default=Backend.THREAD.value,
        choices=[backend.value for backend in Backend],
        help="backend for the parallel implementations",
    )
    parser.add_argument(
        "--periods", type=int, default=100, help="response-spectrum period count"
    )
    parser.add_argument(
        "--config",
        metavar="FILE.JSON",
        help="run-configuration file (overrides --periods/--backend/--workers)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE.JSON",
        help="record a span trace of the run and write it as Chrome Trace "
        "Event JSON (open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--profile",
        metavar="FILE.JSON",
        help="sample the run with the cross-process profiler and write the "
        "merged flamegraph as speedscope JSON (open at speedscope.app); "
        "per-stage top frames are also folded into --trace output",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="record every artifact access during the run and cross-check "
        "the logs against the registry declarations afterwards "
        "(exit 1 on undeclared or conflicting accesses)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="collect run metrics (chunks, tasks, I/O bytes, data points) "
        "and write them to FILE as Prometheus text plus a .json sibling",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="PLAN.JSON",
        help="run under this fault plan (see repro.resilience): inject its "
        "faults, retry transient failures, quarantine poisoned records, and "
        "report the degraded result instead of aborting",
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="stream live lifecycle/telemetry events to the workspace's "
        ".events/ log while the run executes (tail with repro-top)",
    )
    parser.add_argument(
        "--ledger",
        metavar="DB",
        help="append the finished run to this SQLite run ledger "
        "(inspect with repro-ledger; $REPRO_LEDGER auto-appends too)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE.HTML",
        help="write a self-contained HTML run report (Gantt, stage times, "
        "critical path, metrics); implies --trace recording",
    )
    return parser


def main_process(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-process``."""
    args = _build_process_parser().parse_args(argv)
    if args.config:
        from repro.core.config_io import context_from_config, load_config

        ctx = context_from_config(args.workspace, load_config(args.config))
    else:
        ctx = RunContext.for_directory(
            args.workspace,
            response_config=ResponseSpectrumConfig(periods=default_periods(args.periods)),
            parallel=ParallelSettings(args.backend, num_workers=args.workers),
        )
    if args.trace or args.profile or args.report:
        from repro.observability.tracer import Tracer

        # The profiler attributes samples through the tracer's open
        # spans, so --profile turns tracing on even without --trace;
        # the HTML report needs the trace for its Gantt and critpath.
        ctx.tracer = Tracer()
    if args.profile:
        from repro.observability.profiling import SamplingProfiler

        ctx.profiler = SamplingProfiler()
    if args.metrics:
        from repro.observability.metrics import MetricsRegistry

        ctx.metrics = MetricsRegistry()
    if args.generate_event:
        from repro.bench.workloads import materialize, scaled_workload
        from repro.synth.events import paper_event

        event = paper_event(args.generate_event)
        workload = scaled_workload(event, args.scale) if args.scale < 1.0 else None
        if workload is None:
            from repro.synth.dataset import generate_event_dataset

            generate_event_dataset(event, ctx.workspace.input_dir)
        else:
            materialize(event, workload, ctx.workspace.input_dir)
    if args.audit:
        ctx.audit = True
    if args.inject_faults:
        from repro.resilience import FaultPlan

        ctx.resilience = FaultPlan.load(args.inject_faults)
    if args.events:
        ctx.events = True
    impl = pipeline_factory(args.policy)()
    resources = None
    if args.trace:
        from repro.observability.resources import ResourceSampler

        sampler = ResourceSampler(tracer=ctx.tracer)
        with sampler:
            result = impl.run(ctx)
        resources = sampler.log() if len(sampler.log()) else None
    else:
        result = impl.run(ctx)
    for line in result.summary_lines():
        print(line)
    if result.quarantine:
        print(f"\ndegraded run: {len(result.quarantine)} record(s) quarantined")
        for report in sorted(result.quarantine, key=lambda r: r.record):
            print(f"  {report.describe()}")
    if args.trace and result.trace is not None:
        from repro.observability.export import write_chrome_trace

        write_chrome_trace(
            args.trace, result.trace, resources=resources, profile=result.profile
        )
        print(f"trace written to {args.trace}")
    if args.profile and result.profile is not None:
        from repro.observability.profiling import write_speedscope

        write_speedscope(args.profile, result.profile, name=args.policy)
        print(
            f"profile written to {args.profile} "
            f"({result.profile.total_samples} samples, "
            f"{result.profile.attributed_fraction():.0%} span-attributed)"
        )
    if args.metrics:
        from repro.observability.export import write_metrics

        text_path, json_path = write_metrics(args.metrics, ctx.metrics, trace=result.trace)
        print(f"metrics written to {text_path} and {json_path}")
    if args.ledger:
        from repro.observability.ledger import RunLedger, run_entry

        row_id = RunLedger(args.ledger).append(
            run_entry(ctx, result, event_id=args.generate_event)
        )
        print(f"ledger: appended run {row_id} to {args.ledger}")
    if args.report:
        from repro.observability.report_html import write_html_report
        from repro.parallel.backend import resolve_workers

        out = write_html_report(
            args.report, result, metrics=ctx.metrics,
            workers=resolve_workers(args.workers),
            title=f"{Path(args.workspace).name} — {args.policy} ({args.backend})",
        )
        print(f"report written to {out}")
    if args.audit:
        from repro.analysis.audit import audit_findings
        from repro.analysis.model import ERROR, Report

        root = ctx.workspace.root
        stations = sorted(p.stem for p in ctx.workspace.input_dir.glob("*.v1"))
        report = Report()
        report.extend(audit_findings(root, stations))
        print(report.render())
        if any(f.severity == ERROR for f in report.findings):
            return 1
    return 0


def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=(
            "table1", "figure11", "figure12", "figure13", "ablation",
            "measured", "schedule", "pipeline-map",
        ),
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--scale", type=float, default=0.02, help="workload scale for 'measured'"
    )
    parser.add_argument(
        "--all-events",
        action="store_true",
        help="'measured' only: run all six catalog events, not just the smallest",
    )
    parser.add_argument(
        "--render",
        metavar="OUT.PS",
        help="additionally render the figure (or schedule Gantt) as PostScript",
    )
    parser.add_argument(
        "--policy",
        default="full-parallel",
        # The policies repro.bench.taskgraphs can simulate.
        choices=PAPER_POLICIES + ("wavefront-parallel",),
        help="scheduling policy for 'schedule' rendering",
    )
    return parser


def main_bench(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-bench``."""
    args = _build_bench_parser().parse_args(argv)
    if args.experiment == "table1":
        from repro.bench.table1 import render_table1, table1_model

        print("Table I (model mode; 'paper' columns are the published values)")
        print(render_table1(table1_model()))
    elif args.experiment == "figure11":
        from repro.bench.figure11 import figure11_model, render_figure11

        rows = figure11_model()
        print("Figure 11 (per-stage, largest event, model mode)")
        print(render_figure11(rows))
        if args.render:
            from repro.bench.render import render_figure11_ps

            render_figure11_ps(args.render, rows)
            print(f"rendered {args.render}")
    elif args.experiment == "figure12":
        from repro.bench.figure12 import figure12_model, render_figure12

        series = figure12_model()
        print("Figure 12 (per-event grouped times, model mode)")
        print(render_figure12(series))
        if args.render:
            from repro.bench.render import render_figure12_ps

            render_figure12_ps(args.render, series)
            print(f"rendered {args.render}")
    elif args.experiment == "figure13":
        from repro.bench.figure13 import figure13_model, render_figure13

        rows = figure13_model()
        print("Figure 13 (speedup and throughput vs problem size, model mode)")
        print(render_figure13(rows))
        if args.render:
            from repro.bench.render import render_figure13_ps

            render_figure13_ps(args.render, rows)
            print(f"rendered {args.render}")
    elif args.experiment == "schedule":
        from repro.bench.render import render_schedule_ps

        out = args.render or "schedule.ps"
        render_schedule_ps(out, args.policy)
        print(f"rendered {out}")
    elif args.experiment == "pipeline-map":
        from repro.core.pipeline_map import render_pipeline_map

        print(render_pipeline_map())
    elif args.experiment == "ablation":
        from repro.bench.ablation import (
            amdahl_bound,
            sweep_io_capacity,
            sweep_machines,
            sweep_staging_cost,
            sweep_workers,
        )
        from repro.bench.report import format_table

        for label, sweep in (
            ("workers", sweep_workers()),
            ("io_capacity", sweep_io_capacity()),
            ("staging cost multiplier", sweep_staging_cost()),
        ):
            print(f"\nAblation: {label}")
            print(
                format_table(
                    ("value", "full-par (s)", "speedup"),
                    [(p.value, p.full_parallel_s, f"{p.speedup:.2f}x") for p in sweep],
                )
            )
        print("\nAblation: machine presets (full-parallel / wavefront)")
        full = sweep_machines()
        wavefront = sweep_machines(implementation="wavefront-parallel")
        print(
            format_table(
                ("machine", "LPs", "full-par", "wavefront"),
                [
                    (name, int(p.value), f"{p.speedup:.2f}x",
                     f"{wavefront[name].speedup:.2f}x")
                    for name, p in full.items()
                ],
            )
        )
        print(f"\nCritical-path (infinite workers) speedup bound: {amdahl_bound():.2f}x")
    elif args.experiment == "measured":
        if args.all_events:
            from repro.bench.measured_table import measured_table, render_measured_table

            rows = measured_table(scale=args.scale)
            print(f"Measured mode, all six events at scale {args.scale:g} "
                  f"(real wall-clock on this machine)")
            print(render_measured_table(rows))
        else:
            from repro.bench.harness import measure_implementations
            from repro.bench.report import format_table
            from repro.synth.events import PAPER_EVENTS

            row = measure_implementations(PAPER_EVENTS[0], scale=args.scale)
            print(
                f"Measured mode ({row.event_id}: {row.n_files} files, "
                f"{row.total_points} points)"
            )
            print(
                format_table(
                    ("implementation", "wall s"),
                    [(name, t) for name, t in row.times_s.items()],
                )
            )
            print(f"end-to-end speedup on this machine: {row.speedup:.2f}x")
    return 0


def _build_bulletin_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bulletin",
        description="Batch-process an event catalog into a bulletin.",
    )
    parser.add_argument(
        "catalog",
        help="event catalog file (OANT EVENT CATALOG format), or 'paper' "
        "for the built-in six-event Table I catalog",
    )
    parser.add_argument("--root", default="bulletin-run", help="workspace root directory")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset size scale")
    parser.add_argument(
        "--policy",
        "-i",
        default="wavefront-parallel",
        choices=policy_names(),
        help="scheduling policy to use",
    )
    parser.add_argument("--periods", type=int, default=100, help="response-spectrum periods")
    parser.add_argument("--workers", type=int, default=None, help="parallel workers")
    parser.add_argument("--out", help="also write the bulletin to this file")
    parser.add_argument("--title", default="Seismic activity bulletin", help="bulletin title")
    parser.add_argument(
        "--trace",
        metavar="FILE.JSON",
        help="record one span trace across all events (Chrome Trace Event JSON)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="collect metrics across all events and write them to FILE as "
        "Prometheus text plus a .json sibling",
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="stream live telemetry per event workspace (tail the current "
        "event's <root>/<event>/.events log with repro-top)",
    )
    return parser


def main_bulletin(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-bulletin``."""
    args = _build_bulletin_parser().parse_args(argv)
    from repro.core.batch import BatchRunner
    from repro.synth.events import PAPER_EVENTS, read_catalog

    events = list(PAPER_EVENTS) if args.catalog == "paper" else read_catalog(args.catalog)
    tracer = None
    if args.trace:
        from repro.observability.tracer import Tracer

        tracer = Tracer()
    metrics = None
    if args.metrics:
        from repro.observability.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    runner = BatchRunner(
        implementation=pipeline_factory(args.policy)(),
        root=Path(args.root),
        scale=args.scale,
        response_config=ResponseSpectrumConfig(periods=default_periods(args.periods)),
        parallel=ParallelSettings(num_workers=args.workers),
        tracer=tracer,
        metrics=metrics,
        events=args.events,
    )
    bulletin = runner.run(events, title=args.title)
    print(bulletin.render())
    if args.out:
        bulletin.write(args.out)
        print(f"\nbulletin written to {args.out}")
    if tracer is not None:
        from repro.observability.export import write_chrome_trace

        write_chrome_trace(args.trace, tracer.trace())
        print(f"trace written to {args.trace}")
    if metrics is not None:
        from repro.observability.export import write_metrics

        trace = tracer.trace() if tracer is not None else None
        text_path, json_path = write_metrics(args.metrics, metrics, trace=trace)
        print(f"metrics written to {text_path} and {json_path}")
    return 0


def _build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Seeded fault-injection soak: assert that clean runs stay "
        "byte-identical and that faulty runs converge to the same quarantine "
        "set, retry counts and degraded text on every implementation and "
        "backend.",
    )
    parser.add_argument("--root", default="chaos-run", help="soak workspace root directory")
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[1, 2],
        help="fault-plan seeds to soak (one faulty matrix pass each)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.02, help="dataset size scale of the soak event"
    )
    parser.add_argument(
        "--faults", type=int, default=2, help="faults per randomized plan"
    )
    parser.add_argument("--workers", type=int, default=2, help="parallel worker count")
    parser.add_argument(
        "--policies",
        nargs="+",
        default=None,
        choices=policy_names(),
        metavar="NAME",
        help="scheduling policies to soak (default: the paper's four)",
    )
    return parser


def main_chaos(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-chaos``."""
    args = _build_chaos_parser().parse_args(argv)
    from repro.resilience.chaos import chaos_soak

    report = chaos_soak(
        args.root,
        args.seeds,
        scale=args.scale,
        n_faults=args.faults,
        implementations=args.policies,
        workers=args.workers,
    )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_bench())
