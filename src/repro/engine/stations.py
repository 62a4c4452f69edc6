"""One station's whole chain: the unit of ``wavefront-parallel``.

After stages I, II and VII build the global lists and metadata, each
station's work is independent of every other station's: its response
spectra never read anything of another station.  The wavefront
scheduling direction of the paper's §VIII exploits that. Each station
flows through its whole chain

    separate -> default-correct -> fourier -> corners ->
    definitive-correct -> response (3 traces) -> GEM -> plots

as one unit, with stations running concurrently and no barriers
between the former stages.  ``wavefront-parallel`` fans the units out
over a parallel loop (:mod:`repro.engine.policy`).

Output parity: the global artifacts (``filter_corrected.par`` and the
maxvals files) are assembled by the policy's epilogue exactly as the
staged plans write them. Corner specs are collected and written
sorted, and per-trace maxima lines are merged in sorted name order, so
a station-chain run stays byte-identical to every other policy.
"""

from __future__ import annotations

from repro.core.artifacts import FILTER_PARAMS, Workspace
from repro.core.auditing import unit_scope
from repro.core.context import RunContext
from repro.core.processes.p03_separate import separate_station
from repro.core.processes.p10_corners import analyze_component
from repro.core.processes.p16_response import response_for_trace
from repro.core.processes.p19_gem import set_data_apart
from repro.core.tempfolders import run_staged_instance
from repro.dsp.fir import BandPassSpec
from repro.engine.executor import correction_instance, fourier_instance
from repro.formats.common import COMPONENTS
from repro.formats.fourier import component_f_name, read_fourier
from repro.formats.params import FilterParams, read_filter_params, write_filter_params
from repro.formats.response import component_r_name, read_response
from repro.formats.v2 import component_v2_name, read_v2
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
