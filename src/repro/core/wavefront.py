"""Wavefront-scheduled implementation (the paper's §VIII future work).

The paper's fully-parallelized version keeps a barrier between every
stage: all stations must finish stage IV before any may start stage V,
and so on.  But after stages I–II, the per-station work is *semantically
independent*: station A's response spectra never read anything of
station B.  The "wavefront scheduling" direction of §VIII exploits
that — each station flows through its whole chain

    separate -> default-correct -> fourier -> corners ->
    definitive-correct -> response (3 traces) -> GEM -> plots

as one pipeline, with stations running concurrently and **no global
barriers** between the former stages.  Load imbalance melts away: a
station with a short record finishes its expensive response stage
while a big station is still filtering.

Output parity: the global artifacts (flags, lists, metadata,
``filter_corrected.par``, the maxvals files) are written exactly as the
staged implementations write them — corner specs are collected and
written sorted, per-trace maxima lines are merged in sorted name
order — so the wavefront run remains byte-identical to the other four
implementations (enforced by the integration tests).
"""

from __future__ import annotations

import time
from functools import partial

from repro.core.artifacts import (
    FILTER_CORRECTED,
    FILTER_PARAMS,
    MAXVALS,
    MAXVALS2,
    Workspace,
)
from repro.core.auditing import unit_scope
from repro.core.context import RunContext
from repro.core.processes.p00_flags import run_p00
from repro.core.processes.p01_gather import run_p01
from repro.core.processes.p02_params import run_p02
from repro.core.processes.p03_separate import separate_station, stations_from_list
from repro.core.processes.p05_metadata import run_p05
from repro.core.processes.p08_fourier_meta import run_p08
from repro.core.processes.p10_corners import analyze_component
from repro.core.processes.p11_flags2 import run_p11
from repro.core.processes.p16_response import response_for_trace
from repro.core.processes.p17_response_meta import run_p17
from repro.core.processes.p19_gem import set_data_apart
from repro.core.runner import PipelineImplementation, PipelineResult, ProcessTiming
from repro.core.tempfolders import run_staged_instance
from repro.dsp.fir import BandPassSpec
from repro.engine.executor import correction_instance, fourier_instance
from repro.formats.common import COMPONENTS
from repro.formats.fourier import component_f_name, read_fourier
from repro.formats.params import FilterParams, read_filter_params, write_filter_params
from repro.formats.response import component_r_name, read_response
from repro.formats.v2 import component_v2_name, read_v2
from repro.observability.tracer import maybe_span
from repro.parallel.omp import TaskGroup, parallel_for
from repro.plotting.seismo import (
    plot_accelerograph,
    plot_fourier_spectrum,
    plot_response_spectrum,
)


def _rename_max_parts(workspace: Workspace, station: str, suffix: str) -> None:
    """Stash a station's fresh ``*.max`` parts under a pass-specific
    suffix so the two correction passes do not collide."""
    for comp in COMPONENTS:
        part = workspace.work_dir / f"{station}{comp}.max"
        part.rename(workspace.work_dir / f"{station}{comp}.{suffix}")


def _merge_suffixed(workspace: Workspace, suffix: str, out_name: str) -> None:
    """Merge suffixed maxima parts in sorted order (identical bytes to
    :func:`repro.core.processes.common.merge_max_files`)."""
    parts = sorted(workspace.work_dir.glob(f"*.{suffix}"))
    if not parts:
        return
    lines = [p.read_text().rstrip("\n") for p in parts]
    (workspace.work_dir / out_name).write_text("\n".join(lines) + "\n")
    for p in parts:
        p.unlink()


def process_station_wavefront(
    ctx: RunContext, item: tuple[int, str]
) -> list[tuple[str, str, BandPassSpec]]:
    """One station's complete pipeline (the wavefront unit).

    ``item`` is ``(ordinal, station)`` — the ordinal keeps each
    station's temp folders distinct while the wavefronts overlap.
    Returns the definitive corner specs found for the station's three
    components so the driver can assemble ``filter_corrected.par``.
    """
    index, station = item
    workspace = ctx.workspace
    root = str(workspace.root)

    # P3: split the raw record.
    separate_station(root, station)

    # P4 (this station only): default correction via a staged tool
    # instance — identical bytes to the barriered implementations.
    # Each section carries its own audit scope (process, station) so
    # concurrent wavefronts stay distinguishable per unit.
    with unit_scope("P4", station):
        run_staged_instance(root, correction_instance("IV", index, station, FILTER_PARAMS))
        _rename_max_parts(workspace, station, "max1")

    # P7: Fourier spectra.
    with unit_scope("P7", station):
        run_staged_instance(root, fourier_instance("V", index, station, ctx))

    # P10 (this station): corner search per component, seeded from the
    # on-disk default corners exactly like the staged implementations.
    with unit_scope("P10", station):
        base = read_filter_params(workspace.work(FILTER_PARAMS), process="P10").default
    specs: list[tuple[str, str, BandPassSpec]] = []
    for comp in COMPONENTS:
        specs.append(
            analyze_component(
                root,
                component_f_name(station, comp),
                base,
                ctx.inflection,
            )
        )

    # P13 (this station): definitive correction.  The global
    # filter_corrected.par does not exist yet, so stage a private
    # per-station parameter file carrying exactly this station's
    # overrides (spec_for() resolves identically).
    with unit_scope("P13", station):
        params = FilterParams(default=base)
        for s, comp, spec in specs:
            params.set_override(s, comp, spec)
        private = f"_wf_{station}.par"
        write_filter_params(workspace.work(private), params)
        instance = correction_instance("VIII", index, station, private)
        run_staged_instance(root, instance)
        workspace.work(private).unlink()
        _rename_max_parts(workspace, station, "max2")

    # P16: response spectra for the three traces.
    for comp in COMPONENTS:
        response_for_trace(
            root,
            component_v2_name(station, comp),
            component_r_name(station, comp),
            ctx.response_config,
        )

    # P19: GEM exports (six source files per station).
    for comp in COMPONENTS:
        set_data_apart(root, component_v2_name(station, comp), False)
        set_data_apart(root, component_r_name(station, comp), True)

    # P9/P15/P18: this station's three plot files.
    with unit_scope("P9", station):
        f_records = {
            comp: read_fourier(workspace.component_f(station, comp), process="P9")
            for comp in COMPONENTS
        }
        plot_fourier_spectrum(workspace.plot_fourier(station), f_records)
    with unit_scope("P15", station):
        v2_records = {
            comp: read_v2(workspace.component_v2(station, comp), process="P15")
            for comp in COMPONENTS
        }
        plot_accelerograph(workspace.plot_accelerograph(station), v2_records)
    with unit_scope("P18", station):
        r_records = {
            comp: read_response(workspace.component_r(station, comp), process="P18")
            for comp in COMPONENTS
        }
        plot_response_spectrum(workspace.plot_response(station), r_records)
    return specs


class WavefrontParallel(PipelineImplementation):
    """Per-station pipelining with no inter-stage barriers.

    Not one of the paper's four implementations — it realizes the
    "wavefront scheduling" improvement sketched in the paper's
    discussion (§VIII) on top of the same processes and artifacts.
    """

    name = "wavefront-parallel"
    description = "Wavefront: per-station pipelines, no stage barriers (§VIII)"

    def execute(self, ctx: RunContext, result: PipelineResult) -> None:
        tracer = ctx.tracer
        # Prologue: stages I, II and VII exactly as before (they build
        # the global lists/metadata every station unit relies on).
        with maybe_span(
            tracer, "prologue", kind="stage", stage="prologue",
            strategy="tasks", implementation=self.name,
        ) as prologue_span:
            start = time.perf_counter()
            with TaskGroup(
                backend=ctx.parallel.task_backend,
                num_workers=min(ctx.parallel.workers, 2),
                tracer=tracer,
                metrics=ctx.metrics,
            ) as tg:
                tg.task(run_p00, ctx)
                tg.task(run_p01, ctx)
            with TaskGroup(
                backend=ctx.parallel.task_backend,
                num_workers=min(ctx.parallel.workers, 4),
                tracer=tracer,
                metrics=ctx.metrics,
            ) as tg:
                tg.task(run_p02, ctx)
                tg.task(run_p05, ctx)
                tg.task(run_p08, ctx)
                tg.task(run_p17, ctx)
            with maybe_span(tracer, "run_p11", kind="process", pid=11, stage="prologue"):
                run_p11(ctx)
            elapsed = time.perf_counter() - start
        result.stage_durations["prologue"] = (
            prologue_span.duration_s if prologue_span is not None else elapsed
        )

        # The wavefront: stations flow through their chains concurrently.
        with maybe_span(
            tracer, "wavefront", kind="stage", stage="wavefront",
            strategy="loop", implementation=self.name,
        ) as wavefront_span:
            start = time.perf_counter()
            stations = stations_from_list(ctx.workspace)
            all_specs = parallel_for(
                partial(process_station_wavefront, ctx),
                list(enumerate(stations)),
                backend=ctx.parallel.loop_backend,
                num_workers=ctx.parallel.workers,
                tracer=tracer,
                span="station_pipeline",
                metrics=ctx.metrics,
            )
            elapsed = time.perf_counter() - start
        result.stage_durations["wavefront"] = (
            wavefront_span.duration_s if wavefront_span is not None else elapsed
        )

        # Epilogue: assemble the global artifacts deterministically.
        with maybe_span(
            tracer, "epilogue", kind="stage", stage="epilogue",
            strategy="seq", implementation=self.name,
        ) as epilogue_span:
            start = time.perf_counter()
            with unit_scope("P10"):
                base = read_filter_params(
                    ctx.workspace.work(FILTER_PARAMS), process="P10"
                ).default
                params = FilterParams(default=base)
                for specs in all_specs:
                    for station, comp, spec in specs:
                        params.set_override(station, comp, spec)
                write_filter_params(ctx.workspace.work(FILTER_CORRECTED), params)
            with unit_scope("P4"):
                _merge_suffixed(ctx.workspace, "max1", MAXVALS)
            with unit_scope("P13"):
                _merge_suffixed(ctx.workspace, "max2", MAXVALS2)
            tmp = ctx.workspace.tmp_dir
            if tmp.exists() and not any(tmp.iterdir()):
                tmp.rmdir()
            elapsed = time.perf_counter() - start
        result.stage_durations["epilogue"] = (
            epilogue_span.duration_s if epilogue_span is not None else elapsed
        )
        result.processes.append(
            ProcessTiming(
                pid=-1,
                name="wavefront station pipelines",
                stage="wavefront",
                duration_s=result.stage_durations["wavefront"],
            )
        )
