"""The performance-regression gate (``repro-perf``).

``record`` runs the synthetic catalog events through the paper's
implementations — min-of-k wall-clock, per-stage timings with the
tracer's self-time split, resource and I/O summaries — and writes a
canonical ``BENCH_<timestamp>.json``.  ``check`` compares two such
documents with noise-aware per-metric-class thresholds and exits
nonzero on regression, which is what turns the committed baseline into
a gate: the repo's BENCH trajectory starts with the seed baseline this
module recorded, and every future PR can be measured against it.

Thresholds are deliberately loose ( :data:`METRIC_CLASSES` ): measured
mode runs on whatever noisy machine CI provides, so the gate is tuned
to catch *structural* regressions (a stage going 2x, a speedup
collapsing) rather than jitter.  Min-of-k recording attacks the noise
from the other side — the minimum of k repetitions estimates the
machine's uncontended capability far more stably than the mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.engine.policy import PAPER_POLICIES, policy_by_name

SCHEMA = "repro-bench/2"

#: Schema versions :func:`validate_bench` accepts.  v2 added the
#: measured ``critical_path_s`` (required) and the optional ``profile``
#: block per implementation entry; v1 documents (the committed seed
#: baseline among them) still validate and compare.
KNOWN_SCHEMAS = ("repro-bench/1", "repro-bench/2")


@dataclass(frozen=True)
class Thresholds:
    """Regression tolerance of one metric class.

    A lower-is-better metric regresses when ``current > baseline *
    (1 + rel) + abs``; a higher-is-better one (speedup) when ``current
    < baseline * (1 - rel) - abs``.  The absolute floor keeps tiny
    denominators (a 5 ms stage) from turning scheduler jitter into
    alarms.
    """

    rel: float
    abs: float
    higher_is_better: bool = False

    def regressed(self, baseline: float, current: float) -> bool:
        """Whether ``current`` falls outside the tolerated band."""
        if self.higher_is_better:
            return current < baseline * (1.0 - self.rel) - self.abs
        return current > baseline * (1.0 + self.rel) + self.abs

    def improved(self, baseline: float, current: float) -> bool:
        """Whether ``current`` beats the band on the good side."""
        if self.higher_is_better:
            return current > baseline * (1.0 + self.rel) + self.abs
        return current < baseline * (1.0 - self.rel) - self.abs


#: Metric classes and their noise tolerances.  End-to-end times are the
#: steadiest (whole-pipeline averaging); single stages jitter hard at
#: the small scales CI can afford, hence the wide band; RSS moves with
#: the allocator; speedup ratios divide two noisy numbers.
METRIC_CLASSES: dict[str, Thresholds] = {
    "end_to_end_s": Thresholds(rel=0.25, abs=0.05),
    "stage_s": Thresholds(rel=0.60, abs=0.02),
    "peak_rss_bytes": Thresholds(rel=0.50, abs=32 * 1024 * 1024),
    "speedup": Thresholds(rel=0.30, abs=0.1, higher_is_better=True),
}


# -- recording -------------------------------------------------------------


def _run_once(
    impl_cls: Any, event: Any, workload: Any, *, periods: int, backend: str,
    workers: int | None, sample_interval: float, profile_hz: float | None = None,
) -> tuple[Any, Any, Any]:
    """One traced, metered (optionally profiled) repetition in a fresh
    workspace; returns ``(result, metrics registry, resource log)``."""
    from repro.bench.harness import small_response_config
    from repro.bench.workloads import materialize
    from repro.core import RunContext
    from repro.core.context import ParallelSettings
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.profiling import SamplingProfiler
    from repro.observability.resources import ResourceSampler
    from repro.observability.tracer import Tracer

    base = Path(tempfile.mkdtemp(prefix="repro-perf-"))
    try:
        ctx = RunContext.for_directory(
            base / "ws",
            response_config=small_response_config(n_periods=periods),
            parallel=ParallelSettings(backend, num_workers=workers),
        )
        ctx.tracer = Tracer()
        ctx.metrics = MetricsRegistry()
        if profile_hz:
            ctx.profiler = SamplingProfiler(hz=profile_hz)
        materialize(event, workload, ctx.workspace.input_dir)
        sampler = ResourceSampler(interval_s=sample_interval, tracer=ctx.tracer)
        with sampler:
            result = impl_cls().run(ctx)
        log = sampler.log()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return result, ctx.metrics, log


def _measure_one(
    impl_cls: Any, event: Any, workload: Any, *, periods: int, backend: str,
    workers: int | None, sample_interval: float, profile_hz: float | None = None,
) -> dict[str, Any]:
    """One repetition summarized as a bench-document cell."""
    from repro.observability.critpath import (
        critical_path,
        critical_path_length,
        stage_shares,
    )
    from repro.observability.resources import resources_available

    result, registry, log = _run_once(
        impl_cls, event, workload, periods=periods, backend=backend,
        workers=workers, sample_interval=sample_interval, profile_hz=profile_hz,
    )
    trace = result.trace
    stage_self = trace.stage_self_times() if trace is not None else {}
    segments = critical_path(trace) if trace is not None else []
    entry = {
        "total_s": result.total_s,
        "stages": {k: round(v, 6) for k, v in result.stage_durations.items()},
        "stage_self_s": {k: round(v, 6) for k, v in stage_self.items()},
        "critical_path_s": round(critical_path_length(segments), 6),
        "critical_path_stages": {
            k: round(v, 6) for k, v in stage_shares(segments).items()
        },
        "resources": log.summary() if resources_available() and len(log) else None,
        "io": {
            "read_bytes": registry.total("repro_artifact_io_bytes_total", op="read"),
            "write_bytes": registry.total("repro_artifact_io_bytes_total", op="write"),
            "points": registry.total("repro_points_processed_total"),
        },
        "parallel": {
            "chunks": registry.total("repro_parallel_chunks_total"),
            "tasks": registry.total("repro_parallel_tasks_total"),
        },
    }
    if result.profile is not None:
        profile = result.profile
        entry["profile"] = {
            "hz": profile_hz,
            "samples": profile.total_samples,
            "attributed_fraction": round(profile.attributed_fraction(), 4),
            "top_frames": [
                {"frame": frame, "seconds": round(seconds, 4), "samples": count}
                for frame, seconds, count in profile.top_frames(10)
            ],
        }
    return entry


def record_bench(
    *,
    events: Sequence[Any] | None = None,
    implementations: Sequence[str] = PAPER_POLICIES,
    scale: float = 0.02,
    repeats: int = 2,
    periods: int = 30,
    backend: str = "thread",
    workers: int | None = None,
    sample_interval: float = 0.05,
    profile_hz: float | None = None,
) -> dict[str, Any]:
    """Measure the catalog and return the canonical bench document.

    Each (event, implementation) cell runs ``repeats`` times in fresh
    workspaces; the reported numbers come from the fastest repetition
    (min-of-k), all repetition totals are preserved in ``runs_s``.
    With ``profile_hz``, every repetition runs under the sampling
    profiler and each cell embeds its top-frame summary.
    """
    from repro.bench.workloads import scaled_workload
    from repro.engine import pipeline_factory
    from repro.synth.events import PAPER_EVENTS

    events = list(events) if events is not None else list(PAPER_EVENTS)
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "config": {
            "scale": scale,
            "periods": periods,
            "repeats": repeats,
            "backend": backend,
            "workers": workers,
            "profile_hz": profile_hz,
            "events": [e.event_id for e in events],
            "implementations": list(implementations),
        },
        "events": {},
    }
    for event in events:
        workload = scaled_workload(event, scale)
        cell: dict[str, Any] = {
            "n_files": workload.n_files,
            "total_points": workload.total_points,
            "implementations": {},
        }
        for name in implementations:
            impl_cls = pipeline_factory(name)
            reps = [
                _measure_one(
                    impl_cls, event, workload, periods=periods, backend=backend,
                    workers=workers, sample_interval=sample_interval,
                    profile_hz=profile_hz,
                )
                for _ in range(max(1, repeats))
            ]
            best = min(reps, key=lambda r: r["total_s"])
            entry = dict(best)
            entry["total_s"] = round(best["total_s"], 6)
            entry["runs_s"] = [round(r["total_s"], 6) for r in reps]
            cell["implementations"][name] = entry
        seq = cell["implementations"].get("seq-original")
        for name, entry in cell["implementations"].items():
            entry["speedup_vs_original"] = (
                round(seq["total_s"] / entry["total_s"], 4)
                if seq is not None and entry["total_s"] > 0
                else None
            )
        doc["events"][event.event_id] = cell
    return doc


def validate_bench(doc: dict[str, Any]) -> list[str]:
    """Schema check of a bench document; returns the problems found.

    Accepts every version in :data:`KNOWN_SCHEMAS`; the v2-only fields
    (``critical_path_s``, the optional ``profile`` block) are required
    or checked only on v2 documents, so the committed v1 seed baseline
    keeps validating.
    """
    errors: list[str] = []
    schema = doc.get("schema")
    if schema not in KNOWN_SCHEMAS:
        errors.append(f"schema: expected one of {KNOWN_SCHEMAS!r}, got {schema!r}")
    v2 = schema == "repro-bench/2"
    for key in ("created_utc", "host", "config", "events"):
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    events = doc.get("events")
    if not isinstance(events, dict) or not events:
        errors.append("events: must be a non-empty mapping")
        return errors
    wanted = doc.get("config", {}).get("implementations") or []
    for event_id, cell in events.items():
        impls = cell.get("implementations")
        if not isinstance(impls, dict) or not impls:
            errors.append(f"{event_id}: no implementations")
            continue
        for name in wanted:
            if name not in impls:
                errors.append(f"{event_id}: implementation {name!r} missing")
        for name, entry in impls.items():
            where = f"{event_id}/{name}"
            total = entry.get("total_s")
            if not isinstance(total, (int, float)) or total <= 0:
                errors.append(f"{where}: total_s must be positive")
            if not entry.get("runs_s"):
                errors.append(f"{where}: runs_s missing or empty")
            if not isinstance(entry.get("stages"), dict) or not entry["stages"]:
                errors.append(f"{where}: stages missing or empty")
            if "speedup_vs_original" not in entry:
                errors.append(f"{where}: speedup_vs_original missing")
            if "stage_self_s" not in entry:
                errors.append(f"{where}: stage_self_s missing")
            if v2:
                cp = entry.get("critical_path_s")
                if not isinstance(cp, (int, float)) or cp <= 0:
                    errors.append(f"{where}: critical_path_s must be positive")
                profile = entry.get("profile")
                if profile is not None:
                    if not isinstance(profile.get("samples"), int):
                        errors.append(f"{where}: profile.samples must be an integer")
                    frac = profile.get("attributed_fraction")
                    if not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
                        errors.append(
                            f"{where}: profile.attributed_fraction must be in [0, 1]"
                        )
                    if not isinstance(profile.get("top_frames"), list):
                        errors.append(f"{where}: profile.top_frames must be a list")
    return errors


def write_bench(doc: dict[str, Any], out_dir: Path | str = ".") -> Path:
    """Write ``doc`` as ``BENCH_<timestamp>.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = (
        doc.get("created_utc", "")
        .replace("-", "").replace(":", "")
    ) or time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = out_dir / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def latest_bench(directory: Path | str = ".") -> Path | None:
    """Newest ``BENCH_*.json`` under ``directory`` (by name, so by
    timestamp), or ``None``."""
    candidates = sorted(Path(directory).glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def resolve_bench_source(path: Path | str) -> tuple[dict[str, Any], str]:
    """Load a bench document from a file *or* a directory.

    A directory selects the newest schema-compatible ``BENCH_*.json``
    in it: candidates are tried newest-first and the first one that
    loads and passes :func:`validate_bench` wins, so a directory of
    CI artifacts with the odd truncated or foreign-schema file still
    resolves.  Raises :class:`ValueError` with every candidate's
    problem when none validates (or the directory holds none at all).
    Returns ``(document, label)``.
    """
    path = Path(path)
    if not path.is_dir():
        return json.loads(path.read_text()), str(path)
    candidates = sorted(path.glob("BENCH_*.json"), reverse=True)
    if not candidates:
        raise ValueError(f"no BENCH_*.json under {path}")
    problems: list[str] = []
    for candidate in candidates:
        try:
            doc = json.loads(candidate.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{candidate.name}: unreadable ({exc})")
            continue
        errors = validate_bench(doc)
        if errors:
            problems.append(f"{candidate.name}: {errors[0]}")
            continue
        return doc, str(candidate)
    raise ValueError(
        f"no schema-compatible BENCH_*.json under {path}; candidates:\n  "
        + "\n  ".join(problems)
    )


def render_bench(doc: dict[str, Any]) -> str:
    """Human-readable report of one bench document.

    The per-stage tables split each stage into total wall-clock and the
    tracer-derived *self* time, so executor overhead (chunk dispatch,
    merging, pool management) is visible separately from measured
    process work.
    """
    from repro.bench.report import format_table

    blocks: list[str] = []
    for event_id, cell in doc.get("events", {}).items():
        impls = cell["implementations"]
        rows = [
            (
                name,
                f"{entry['total_s']:.3f}",
                f"{entry['speedup_vs_original']:.2f}x"
                if entry.get("speedup_vs_original")
                else "-",
                f"{(entry.get('resources') or {}).get('peak_rss_bytes', 0) / 1e6:.0f} MB"
                if entry.get("resources")
                else "-",
            )
            for name, entry in impls.items()
        ]
        blocks.append(
            f"{event_id} ({cell['n_files']} files, {cell['total_points']} points)\n"
            + format_table(("implementation", "total s", "speedup", "peak RSS"), rows)
        )
        for name, entry in impls.items():
            stage_rows = [
                (
                    stage,
                    f"{dur:.4f}",
                    f"{entry.get('stage_self_s', {}).get(stage, 0.0):.4f}",
                )
                for stage, dur in entry.get("stages", {}).items()
            ]
            if stage_rows:
                blocks.append(
                    f"  {name} stages (self = stage overhead outside "
                    "process/chunk spans)\n"
                    + _indent(format_table(("stage", "total s", "self s"), stage_rows))
                )
    return "\n\n".join(blocks)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


# -- checking --------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """One compared metric."""

    event: str
    implementation: str
    metric: str
    metric_class: str
    baseline: float
    current: float
    status: str  # "ok" | "improved" | "REGRESSION"

    @property
    def rel_change(self) -> float:
        """Signed relative change of current vs baseline."""
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / self.baseline


def _cell_metrics(entry: dict[str, Any]) -> list[tuple[str, str, float]]:
    """(metric name, metric class, value) rows of one bench cell."""
    out: list[tuple[str, str, float]] = [
        ("end_to_end_s", "end_to_end_s", float(entry["total_s"]))
    ]
    for stage, dur in (entry.get("stages") or {}).items():
        out.append((f"stage[{stage}]", "stage_s", float(dur)))
    speedup = entry.get("speedup_vs_original")
    if speedup:
        out.append(("speedup", "speedup", float(speedup)))
    resources = entry.get("resources") or {}
    if resources.get("peak_rss_bytes"):
        out.append(
            ("peak_rss_bytes", "peak_rss_bytes", float(resources["peak_rss_bytes"]))
        )
    return out


def check_bench(
    baseline: dict[str, Any], current: dict[str, Any]
) -> tuple[list[Delta], list[Delta]]:
    """Compare two bench documents metric by metric.

    Only (event, implementation, metric) cells present in *both*
    documents are compared — shrinking or growing the measured matrix
    never fails the gate by itself.  Returns ``(all deltas,
    regressions)``.
    """
    deltas: list[Delta] = []
    for event_id, base_cell in (baseline.get("events") or {}).items():
        cur_cell = (current.get("events") or {}).get(event_id)
        if cur_cell is None:
            continue
        for name, base_entry in (base_cell.get("implementations") or {}).items():
            cur_entry = (cur_cell.get("implementations") or {}).get(name)
            if cur_entry is None:
                continue
            cur_metrics = {m: (c, v) for m, c, v in _cell_metrics(cur_entry)}
            for metric, cls_name, base_value in _cell_metrics(base_entry):
                if metric not in cur_metrics:
                    continue
                _, cur_value = cur_metrics[metric]
                thresholds = METRIC_CLASSES[cls_name]
                if thresholds.regressed(base_value, cur_value):
                    status = "REGRESSION"
                elif thresholds.improved(base_value, cur_value):
                    status = "improved"
                else:
                    status = "ok"
                deltas.append(
                    Delta(
                        event=event_id, implementation=name, metric=metric,
                        metric_class=cls_name, baseline=base_value,
                        current=cur_value, status=status,
                    )
                )
    regressions = [d for d in deltas if d.status == "REGRESSION"]
    return deltas, regressions


def render_deltas(deltas: list[Delta], *, only_notable: bool = True) -> str:
    """The delta table ``repro-perf check`` prints.

    ``only_notable`` hides in-band rows unless everything is in band
    (then a short all-clear summary renders instead).
    """
    from repro.bench.report import format_table

    notable = [d for d in deltas if d.status != "ok"]
    shown = notable if (only_notable and notable) else deltas
    if not shown:
        return "no comparable metrics"
    rows = [
        (
            d.event, d.implementation, d.metric,
            f"{d.baseline:.4g}", f"{d.current:.4g}",
            f"{d.rel_change:+.1%}", d.status,
        )
        for d in sorted(
            shown, key=lambda d: (d.status != "REGRESSION", d.event,
                                  d.implementation, d.metric)
        )
    ]
    table = format_table(
        ("event", "implementation", "metric", "baseline", "current", "delta", "status"),
        rows,
    )
    if only_notable and notable:
        ok_count = len(deltas) - len(notable)
        return table + f"\n({ok_count} further metrics within thresholds)"
    return table


def _worst_stage_summary(
    regressions: list[Delta], baseline: dict[str, Any], current: dict[str, Any]
) -> str | None:
    """One actionable line naming the worst-regressed stage.

    Picks the stage regression with the largest relative slowdown and
    reports its measured *self-time* movement (the tracer's
    :meth:`Trace.stage_self_times` split, preserved per entry as
    ``stage_self_s``), so the failure message already says whether the
    stage's own overhead or its scheduled work regressed — without
    opening the BENCH JSON.
    """
    stage_regs = [d for d in regressions if d.metric_class == "stage_s"]
    if not stage_regs:
        return None
    worst = max(stage_regs, key=lambda d: d.rel_change)
    stage = worst.metric[len("stage["):-1]
    line = (
        f"worst-regressed stage: {stage} "
        f"({worst.event}/{worst.implementation}): "
        f"{worst.baseline:.4g} s -> {worst.current:.4g} s "
        f"({worst.rel_change:+.1%})"
    )

    def _self_time(doc: dict[str, Any]) -> float | None:
        entry = (
            (doc.get("events") or {}).get(worst.event, {})
            .get("implementations", {}).get(worst.implementation, {})
        )
        value = (entry.get("stage_self_s") or {}).get(stage)
        return float(value) if value is not None else None

    base_self = _self_time(baseline)
    cur_self = _self_time(current)
    if base_self is not None and cur_self is not None:
        line += (
            f"; measured self-time {base_self:.4g} s -> {cur_self:.4g} s "
            f"({cur_self - base_self:+.4g} s)"
        )
    return line


# -- explaining ------------------------------------------------------------


def explain_event(
    event: Any,
    *,
    implementations: Sequence[str] = PAPER_POLICIES,
    scale: float = 0.02,
    periods: int = 30,
    backend: str = "thread",
    workers: int | None = None,
    profile_hz: float | None = 97.0,
    top: int = 3,
) -> list[tuple[str, dict[str, Any], float | None]]:
    """Bottleneck reports for one event, one per implementation.

    Each implementation runs once, traced and (by default) profiled;
    the report is :func:`repro.observability.critpath.explain` plus the
    measured speedup against the ``seq-original`` run of the same
    batch.  Returns ``(name, report, measured speedup)`` triples.
    """
    from repro.bench.workloads import scaled_workload
    from repro.engine import pipeline_factory
    from repro.observability.critpath import explain as build_explain
    from repro.parallel.backend import resolve_workers

    workload = scaled_workload(event, scale)
    measured: list[tuple[str, dict[str, Any], float]] = []
    for name in implementations:
        result, _registry, _log = _run_once(
            pipeline_factory(name), event, workload, periods=periods,
            backend=backend, workers=workers, sample_interval=0.05,
            profile_hz=profile_hz,
        )
        report = build_explain(
            result.trace, resolve_workers(workers), profile=result.profile, top=top
        )
        measured.append((name, report, result.total_s))
    seq_total = next(
        (total for name, _r, total in measured if name == "seq-original"), None
    )
    return [
        (
            name,
            report,
            seq_total / total if seq_total and total > 0 else None,
        )
        for name, report, total in measured
    ]


# -- CLI -------------------------------------------------------------------


def _policy_list(text: str) -> list[str]:
    """``--policies`` value: comma-separated names, each one registered."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    for name in names:
        try:
            policy_by_name(name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _add_policies_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policies", type=_policy_list, default=list(PAPER_POLICIES),
        help="comma-separated scheduling policy names (default: the paper's four)",
    )


def _add_record_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--events", default="all",
        help="comma-separated catalog event ids, or 'all' (default)",
    )
    _add_policies_option(parser)
    parser.add_argument("--scale", type=float, default=0.02, help="workload scale")
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="repetitions per cell; reported numbers are min-of-k",
    )
    parser.add_argument("--periods", type=int, default=30, help="response-spectrum periods")
    parser.add_argument("--backend", default="thread", help="parallel backend")
    parser.add_argument("--workers", type=int, default=None, help="parallel workers")


def _resolve_events(spec: str) -> list[Any]:
    from repro.synth.events import PAPER_EVENTS, paper_event

    if spec == "all":
        return list(PAPER_EVENTS)
    return [paper_event(event_id.strip()) for event_id in spec.split(",") if event_id.strip()]


def _record_from_args(args: argparse.Namespace) -> dict[str, Any]:
    return record_bench(
        events=_resolve_events(args.events),
        implementations=args.policies,
        scale=args.scale,
        repeats=args.repeats,
        periods=args.periods,
        backend=args.backend,
        workers=args.workers,
        profile_hz=args.hz if getattr(args, "profile", False) else None,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Record performance baselines and check for regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="measure the catalog, write BENCH_<ts>.json")
    _add_record_options(rec)
    rec.add_argument(
        "--out-dir", default=".", help="directory for the BENCH_<timestamp>.json"
    )
    rec.add_argument(
        "--quiet", action="store_true", help="suppress the per-event report"
    )
    rec.add_argument(
        "--profile", action="store_true",
        help="run every repetition under the sampling profiler and embed "
             "top-frame summaries in the bench document",
    )
    rec.add_argument(
        "--hz", type=float, default=97.0, help="profiler sampling rate (with --profile)"
    )

    chk = sub.add_parser("check", help="compare against a baseline; exit 1 on regression")
    _add_record_options(chk)
    chk.add_argument(
        "--baseline", default=None,
        help="baseline BENCH_*.json (default: newest in the current directory)",
    )
    chk.add_argument(
        "--against", default=None,
        help="compare an already-recorded BENCH_*.json instead of running "
        "fresh; a directory selects its newest schema-compatible bench file",
    )
    chk.add_argument(
        "--advisory", action="store_true",
        help="report regressions but always exit 0 (CI smoke mode)",
    )
    chk.add_argument(
        "--all-deltas", action="store_true", help="print in-band rows too"
    )

    exp = sub.add_parser(
        "explain",
        help="run each implementation once and print the bottleneck report: "
             "per-stage critical-path shares, parallel efficiency, top frames, "
             "and measured vs modeled (Amdahl / work-span) speedup",
    )
    exp.add_argument("--event", default="EV-NOV18", help="catalog event id")
    _add_policies_option(exp)
    exp.add_argument("--scale", type=float, default=0.02, help="workload scale")
    exp.add_argument("--periods", type=int, default=30, help="response-spectrum periods")
    exp.add_argument("--backend", default="thread", help="parallel backend")
    exp.add_argument("--workers", type=int, default=None, help="parallel workers")
    exp.add_argument("--hz", type=float, default=97.0, help="profiler sampling rate")
    exp.add_argument(
        "--no-profile", action="store_true",
        help="skip the sampling profiler (critical path and model only)",
    )
    exp.add_argument("--top", type=int, default=3, help="frames per stage in the report")
    return parser


def main_perf(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-perf``."""
    args = _build_parser().parse_args(argv)
    if args.command == "record":
        doc = _record_from_args(args)
        errors = validate_bench(doc)
        if errors:
            for err in errors:
                print(f"schema error: {err}", file=sys.stderr)
            return 1
        path = write_bench(doc, args.out_dir)
        if not args.quiet:
            print(render_bench(doc))
            print()
        print(f"bench written to {path}")
        import os

        if os.environ.get("REPRO_LEDGER"):
            from repro.observability.ledger import RunLedger, entries_from_bench

            ledger = RunLedger(os.environ["REPRO_LEDGER"])
            entries = entries_from_bench(doc)
            for entry in entries:
                ledger.append(entry)
            print(
                f"ledger: appended {len(entries)} cell(s) "
                f"to {os.environ['REPRO_LEDGER']}"
            )
        return 0

    if args.command == "explain":
        from repro.observability.critpath import render_explain
        from repro.synth.events import paper_event

        reports = explain_event(
            paper_event(args.event),
            implementations=args.policies,
            scale=args.scale,
            periods=args.periods,
            backend=args.backend,
            workers=args.workers,
            profile_hz=None if args.no_profile else args.hz,
            top=args.top,
        )
        print(f"event {args.event}, backend {args.backend}")
        for name, report, measured in reports:
            print(f"\n== {name} ==")
            print(render_explain(report, measured_speedup=measured))
        return 0

    # check
    baseline_path = Path(args.baseline) if args.baseline else latest_bench(".")
    if baseline_path is None or not baseline_path.exists():
        print("no baseline BENCH_*.json found; record one first", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())
    if args.against:
        try:
            current, current_label = resolve_bench_source(args.against)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        current = _record_from_args(args)
        errors = validate_bench(current)
        if errors:
            for err in errors:
                print(f"schema error: {err}", file=sys.stderr)
            return 1
        current_label = "fresh run"
    deltas, regressions = check_bench(baseline, current)
    print(f"baseline: {baseline_path}")
    print(f"current:  {current_label}")
    print(render_deltas(deltas, only_notable=not args.all_deltas))
    if regressions:
        worst = _worst_stage_summary(regressions, baseline, current)
        if worst:
            print(worst)
        verdict = f"{len(regressions)} regression(s) beyond thresholds"
        if args.advisory:
            print(f"ADVISORY: {verdict} (advisory mode, not failing)")
            return 0
        print(f"FAIL: {verdict}", file=sys.stderr)
        return 1
    print("OK: all compared metrics within thresholds")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_perf())
