"""P16 — response spectrum calculation (Fortran in the original).

The pipeline's dominant cost: for every component file, the elastic
response spectra over the full oscillator grid (the paper quotes a
sequential complexity of O(9000 * N * D^2) for its Duhamel-style
formulation — §VI-B).  Stage IX of the fully-parallel implementation
maps :func:`response_for_trace` over all 3N component files, the
paper's Fortran ``omp do``; it is both the longest stage and the one
with the highest speedup (5.14x, Fig. 11).
"""

from __future__ import annotations

from repro.core.artifacts import RESPONSE_META, Workspace
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.formats.filelist import read_metadata
from repro.formats.response import ResponseRecord, write_response
from repro.formats.v2 import read_v2
from repro.spectra.response import ResponseSpectrumConfig, response_spectrum


@process_unit("P16", unit_arg=2)
def response_for_trace(
    workspace_root: str, v2_name: str, r_name: str, config: ResponseSpectrumConfig
) -> str:
    """Unit of P16's loop: response spectra for one component file."""
    workspace = Workspace(workspace_root)
    record = read_v2(workspace.work(v2_name), process="P16")
    spectrum = response_spectrum(record.acceleration, record.header.dt, config)
    out = ResponseRecord(
        header=record.header.copy_for(),
        periods=spectrum.periods,
        dampings=spectrum.dampings,
        sa=spectrum.sa,
        sv=spectrum.sv,
        sd=spectrum.sd,
    )
    write_response(workspace.work(r_name), out)
    return r_name


def trace_pairs(ctx: RunContext) -> list[tuple[str, str]]:
    """(v2 name, r name) for every component file, from response.meta."""
    from repro.resilience.runtime import surviving_entries

    meta = read_metadata(ctx.workspace.work(RESPONSE_META), process="P16")
    pairs: list[tuple[str, str]] = []
    for entry in surviving_entries(meta.entries):
        _station, *names = entry
        v2_names, r_names = names[:3], names[3:]
        pairs.extend(zip(v2_names, r_names))
    return pairs


@process_unit("P16")
def run_p16(ctx: RunContext) -> None:
    """Compute response spectra for every trace, sequentially."""
    root = str(ctx.workspace.root)
    for v2_name, r_name in trace_pairs(ctx):
        response_for_trace(root, v2_name, r_name, ctx.response_config)
