"""Multi-event batch processing and bulletin generation.

The Salvadoran observatory publishes a monthly seismic-activity
bulletin (paper ref. [21]: 241 events in December 2023 alone); the
pipeline of this library is what produces the per-event numbers.  This
module runs a whole catalog — one workspace per event — and assembles
the bulletin: per event, the triggered stations, peak motions, the
response-spectrum highlights, intensity measures, and the processing
time of the chosen implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.context import ParallelSettings, RunContext
from repro.core.runner import PipelineImplementation, PipelineResult
from repro.core.verify import verify_inventory
from repro.dsp.intensity import arias_intensity, significant_duration
from repro.errors import PipelineError
from repro.formats.common import COMPONENTS
from repro.formats.response import read_response
from repro.formats.v2 import read_v2
from repro.observability.tracer import Tracer, maybe_span
from repro.spectra.response import ResponseSpectrumConfig
from repro.synth.events import EventSpec


@dataclass(frozen=True)
class EventSummary:
    """One bulletin row."""

    event_id: str
    date: str
    magnitude: float
    n_stations: int
    total_points: int
    max_pga_gal: float
    max_pga_station: str
    max_sa02_gal: float
    max_sa10_gal: float
    max_arias_cm_s: float
    max_significant_duration_s: float
    processing_time_s: float
    implementation: str
    #: ``ok`` — all stations published; ``degraded`` — the run finished
    #: but quarantined stations (the row covers survivors only);
    #: ``failed`` — the event produced no publishable result at all.
    status: str = "ok"
    #: Stable one-line descriptions of the quarantined records.
    quarantined: tuple[str, ...] = ()
    #: Failure class of a ``failed`` event (exception type name only —
    #: messages may carry workspace paths, which must not leak into the
    #: backend-invariant bulletin text).
    failure: str = ""


@dataclass
class Bulletin:
    """A processed catalog's bulletin."""

    title: str
    events: list[EventSummary] = field(default_factory=list)

    def render(self) -> str:
        """Fixed-width text bulletin (the observatory's report shape).

        An all-healthy bulletin renders exactly as it always has; any
        degraded or failed event appends the degraded-mode section of
        :meth:`degraded_lines` after the totals.
        """
        published = [ev for ev in self.events if ev.status != "failed"]
        lines = [
            self.title,
            "=" * len(self.title),
            "",
            f"{'event':<12} {'date':<11} {'M':>4} {'sta':>4} {'points':>8} "
            f"{'PGA gal':>8} {'@stn':>6} {'SA0.2':>8} {'SA1.0':>8} "
            f"{'Ia cm/s':>8} {'D5-95 s':>8} {'proc s':>7}",
        ]
        for ev in published:
            lines.append(
                f"{ev.event_id:<12} {ev.date:<11} {ev.magnitude:>4.1f} "
                f"{ev.n_stations:>4} {ev.total_points:>8,} "
                f"{ev.max_pga_gal:>8.1f} {ev.max_pga_station:>6} "
                f"{ev.max_sa02_gal:>8.1f} {ev.max_sa10_gal:>8.1f} "
                f"{ev.max_arias_cm_s:>8.2f} {ev.max_significant_duration_s:>8.2f} "
                f"{ev.processing_time_s:>7.2f}"
            )
        total_points = sum(ev.total_points for ev in published)
        total_time = sum(ev.processing_time_s for ev in published)
        lines.append("")
        lines.append(
            f"{len(published)} events, {total_points:,} data points, "
            f"{total_time:.1f} s total processing"
        )
        if total_time > 0:
            lines.append(f"throughput: {total_points / total_time:,.0f} data points/s")
        lines.extend(self.degraded_lines())
        return "\n".join(lines)

    def degraded_lines(self) -> list[str]:
        """The degraded-mode section (empty when every event is ok).

        Deliberately free of paths, timings and worker identities: the
        acceptance bar is that the same fault plan yields *identical*
        degraded text on every implementation and backend.
        """
        troubled = [ev for ev in self.events if ev.status != "ok"]
        if not troubled:
            return []
        lines = ["", "degraded events", "---------------"]
        for ev in troubled:
            if ev.status == "failed":
                lines.append(f"{ev.event_id:<12} failed: {ev.failure}")
                continue
            noun = "record" if len(ev.quarantined) == 1 else "records"
            lines.append(
                f"{ev.event_id:<12} degraded: {len(ev.quarantined)} {noun} quarantined"
            )
            lines.extend(f"  {line}" for line in ev.quarantined)
        return lines

    def degraded_text(self) -> str:
        """The degraded section as one string (convergence comparisons)."""
        return "\n".join(self.degraded_lines())

    def write(self, path: Path | str) -> None:
        """Write the rendered bulletin to disk."""
        Path(path).write_text(self.render() + "\n")


def summarize_event_run(
    ctx: RunContext, event: EventSpec, result: PipelineResult
) -> EventSummary:
    """Extract one bulletin row from a finished run's artifacts.

    A degraded run's row covers the surviving stations only — the
    quarantined ones have no artifacts left to summarize (the runtime
    purged them by design) and are reported in the bulletin's
    degraded-mode section instead.
    """
    excluded = {report.record for report in result.quarantine}
    stations = [s for s in ctx.stations() if s not in excluded]
    max_pga = 0.0
    max_pga_station = "-"
    max_sa02 = 0.0
    max_sa10 = 0.0
    max_arias = 0.0
    max_duration = 0.0
    total_points = 0
    for station in stations:
        for comp in COMPONENTS:
            rec = read_v2(ctx.workspace.component_v2(station, comp), process="bulletin")
            total_points += rec.header.npts if comp == "l" else 0
            pga = abs(rec.peaks.pga)
            if comp != "v" and pga > max_pga:
                max_pga = pga
                max_pga_station = station
            dt = rec.header.dt
            max_arias = max(max_arias, arias_intensity(rec.acceleration, dt))
            max_duration = max(
                max_duration, significant_duration(rec.acceleration, dt)
            )
            resp = read_response(ctx.workspace.component_r(station, comp), process="bulletin")
            d_idx = int(np.argmin(np.abs(resp.dampings - 0.05)))
            i02 = int(np.argmin(np.abs(resp.periods - 0.2)))
            i10 = int(np.argmin(np.abs(resp.periods - 1.0)))
            max_sa02 = max(max_sa02, resp.sa[d_idx, i02])
            max_sa10 = max(max_sa10, resp.sa[d_idx, i10])
    return EventSummary(
        event_id=event.event_id,
        date=event.date,
        magnitude=event.magnitude,
        n_stations=len(stations),
        total_points=total_points,
        max_pga_gal=max_pga,
        max_pga_station=max_pga_station,
        max_sa02_gal=max_sa02,
        max_sa10_gal=max_sa10,
        max_arias_cm_s=max_arias,
        max_significant_duration_s=max_duration,
        processing_time_s=result.total_s,
        implementation=result.implementation,
        status="degraded" if excluded else "ok",
        quarantined=tuple(report.describe() for report in result.quarantine),
    )


@dataclass
class BatchRunner:
    """Processes a catalog of events, one workspace per event."""

    implementation: PipelineImplementation
    root: Path
    scale: float = 1.0
    response_config: ResponseSpectrumConfig | None = None
    parallel: ParallelSettings | None = None
    verify: bool = True
    #: Shared tracer: one trace spanning every event's run, with a
    #: ``batch`` root span over the per-event ``run`` spans.
    tracer: Tracer | None = None
    #: Shared metrics registry: every event's run merges into it (see
    #: :mod:`repro.observability.metrics`).
    metrics: "object | None" = None
    #: Optional fault plans, keyed by event id (see
    #: :mod:`repro.resilience`).  An event with a plan runs in degraded
    #: mode: quarantined records drop out of its bulletin row, and a
    #: pipeline-fatal fault downgrades the event to ``failed`` instead
    #: of aborting the whole batch.  Events without a plan keep the
    #: all-or-nothing behaviour.
    resilience_plans: "dict | None" = None
    #: Stream live telemetry events per event workspace (see
    #: :mod:`repro.observability.events`): each event's run writes its
    #: own ``<root>/<event>/.events/`` log, closed with a batch-layer
    #: ``batch_event_finished`` summary, so ``repro-top`` can follow
    #: whichever event is currently processing.
    events: bool = False

    def run(self, events: list[EventSpec], *, title: str = "Seismic activity bulletin") -> Bulletin:
        """Generate, process and summarize every event."""
        if not events:
            raise PipelineError("batch runner needs at least one event")
        bulletin = Bulletin(title=title)
        with maybe_span(
            self.tracer, title, kind="batch",
            events=len(events), implementation=self.implementation.name,
        ):
            self._run_events(events, bulletin)
        return bulletin

    def _run_events(self, events: list[EventSpec], bulletin: Bulletin) -> None:
        for event in events:
            plan = (self.resilience_plans or {}).get(event.event_id)
            ctx = RunContext.for_directory(
                Path(self.root) / event.event_id,
                tracer=self.tracer,
                metrics=self.metrics,  # type: ignore[arg-type]
                events=self.events,
                **(
                    {"response_config": self.response_config}
                    if self.response_config is not None
                    else {}
                ),
                **({"parallel": self.parallel} if self.parallel is not None else {}),
                **({"resilience": plan} if plan is not None else {}),
            )
            # Imported lazily: repro.bench imports repro.core at package
            # level, so a module-level import here would be circular.
            from repro.bench.workloads import materialize, scaled_workload
            from repro.synth.dataset import generate_event_dataset

            if self.scale < 1.0:
                workload = scaled_workload(event, self.scale)
                materialize(event, workload, ctx.workspace.input_dir)
            else:
                generate_event_dataset(event, ctx.workspace.input_dir)
            try:
                result = self.implementation.run(ctx)
            except PipelineError as exc:
                if plan is None:
                    raise
                # Only fault-injected events may fail soft: a clean
                # event dying is still a batch-fatal pipeline bug.
                bulletin.events.append(self._failed_event(event, exc))
                self._emit_batch_event(ctx, event, "failed", 0)
                continue
            if self.verify:
                excluded = {report.record for report in result.quarantine}
                survivors = [s for s in ctx.stations() if s not in excluded]
                report = verify_inventory(ctx.workspace, stations=survivors)
                if not report.ok:
                    raise PipelineError(
                        f"event {event.event_id}: artifact inventory check failed\n"
                        + report.render()
                    )
            summary = summarize_event_run(ctx, event, result)
            bulletin.events.append(summary)
            self._emit_batch_event(ctx, event, summary.status, len(summary.quarantined))

    def _emit_batch_event(
        self, ctx: RunContext, event: EventSpec, status: str, quarantined: int
    ) -> None:
        """Close the event's log with a batch-layer summary (no-op when
        the run was not event-logged).  The run's handle is unbound by
        now, so an events-only handle is bound for this one emit."""
        if not self.events:
            return
        from repro.core.recording import RunHandle, bound
        from repro.observability.events import emit, release_events

        root = ctx.workspace.root
        with bound(RunHandle(str(root), events=True)):
            emit(
                root, "batch_event_finished",
                event_id=event.event_id, status=status, quarantined=quarantined,
            )
        release_events(root)

    @staticmethod
    def _failed_event(event: EventSpec, exc: PipelineError) -> EventSummary:
        """A ``failed`` bulletin row (no publishable numbers at all)."""
        return EventSummary(
            event_id=event.event_id,
            date=event.date,
            magnitude=event.magnitude,
            n_stations=0,
            total_points=0,
            max_pga_gal=0.0,
            max_pga_station="-",
            max_sa02_gal=0.0,
            max_sa10_gal=0.0,
            max_arias_cm_s=0.0,
            max_significant_duration_s=0.0,
            processing_time_s=0.0,
            implementation="-",
            status="failed",
            failure=type(exc).__name__,
        )
