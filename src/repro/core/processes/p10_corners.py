"""P10 — obtain the FSL & FPL filter corners (C++ in the original).

For every component of every station, searches the velocity Fourier
spectrum for its long-period inflection point (Fig. 3 of the paper)
and derives the definitive band-pass corners.  The paper parallelizes
the *inner* three-component loop (stage VI, §V-B) — the outer station
loop stays sequential in both parallel implementations.

Writes ``filter_corrected.par`` with one override per trace.
"""

from __future__ import annotations

from concurrent.futures import Executor
from functools import partial

from repro.core.artifacts import (
    FILTER_CORRECTED,
    FILTER_PARAMS,
    FOURIERGRAPH_META,
    Workspace,
)
from repro.core.auditing import process_unit
from repro.core.context import InflectionSettings, RunContext
from repro.dsp.fir import BandPassSpec
from repro.formats.filelist import read_metadata
from repro.formats.fourier import read_fourier
from repro.formats.params import FilterParams, read_filter_params, write_filter_params
from repro.parallel.omp import parallel_for
from repro.spectra.inflection import corners_from_inflection, find_inflection_point


@process_unit("P10", unit_arg=1)
def analyze_component(
    workspace_root: str,
    f_name: str,
    base: BandPassSpec,
    settings: InflectionSettings,
) -> tuple[str, str, BandPassSpec]:
    """Unit of the inner loop: corners for one component's spectrum."""
    workspace = Workspace(workspace_root)
    record = read_fourier(workspace.work(f_name), process="P10")
    result = find_inflection_point(
        record.periods,
        record.velocity,
        min_period=settings.min_period,
        smoothing_half_width=settings.smoothing_half_width,
        persistence=settings.persistence,
        fsl_ratio=settings.fsl_ratio,
        fallback_period=settings.fallback_period,
    )
    spec = corners_from_inflection(result, base)
    return record.header.station, record.header.component, spec


@process_unit("P10")
def run_p10(
    ctx: RunContext, *, parallel_inner: bool = False, executor: Executor | None = None
) -> None:
    """Search every trace's inflection; write ``filter_corrected.par``.

    ``parallel_inner=True`` runs the three components of each station
    concurrently (the paper's ``#pragma omp parallel for`` over
    ``j = 0..2``); results are collected in component order so the
    output file is identical either way.  ``executor`` is the run's
    loop pool: every station's inner loop runs on it instead of
    opening a pool per station.
    """
    from repro.resilience.runtime import surviving_entries

    meta = read_metadata(ctx.workspace.work(FOURIERGRAPH_META), process="P10")
    # The base corners come from P2's filter.par — the dependency the
    # registry declares — not from the in-memory context, so every
    # implementation derives corners from the same on-disk state.
    base = read_filter_params(ctx.workspace.work(FILTER_PARAMS), process="P10").default
    params = FilterParams(default=base)
    root = str(ctx.workspace.root)
    for entry in surviving_entries(meta.entries):
        _station, *f_names = entry
        if parallel_inner:
            # functools.partial keeps the body picklable for the
            # process backend (a lambda would not be).
            body = partial(
                analyze_component,
                root,
                base=base,
                settings=ctx.inflection,
            )
            results = parallel_for(
                body,
                f_names,
                backend=ctx.parallel.backend,
                num_workers=min(ctx.parallel.workers, len(f_names)),
                executor=executor,
                tracer=ctx.tracer,
                span="analyze_component",
                metrics=ctx.metrics,
            )
        else:
            results = [
                analyze_component(root, name, base, ctx.inflection)
                for name in f_names
            ]
        for station, comp, spec in results:
            params.set_override(station, comp, spec)
    write_filter_params(ctx.workspace.work(FILTER_CORRECTED), params)
