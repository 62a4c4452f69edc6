"""P19 — generate the GEM files (C++ in the original).

Explodes every (station, component) pair's V2 and R files into six
single-series GEM inputs — 18 files per station.  The paper's
``SetDataApart`` runs over the interleaved V2/R file list with a
``#pragma omp parallel for`` (stage X, parallel in both parallel
implementations, §V-C).

The GEM time-series files carry the corrected A/V/D traces against
time; the GEM spectrum files carry SA/SV/SD at 5% damping against
period.
"""

from __future__ import annotations

import numpy as np

from repro.core.artifacts import RESPONSE_META, Workspace
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.formats.filelist import read_metadata
from repro.formats.gem import GemSeries, write_gem
from repro.formats.response import read_response
from repro.formats.v2 import read_v2

#: GEM reference damping ratio (fraction of critical).
GEM_DAMPING: float = 0.05


@process_unit("P19", unit_arg=1)
def set_data_apart(workspace_root: str, file_name: str, is_response: bool) -> list[str]:
    """Unit of P19's loop: split one V2 or R file into three GEM series.

    Mirrors the legacy ``SetDataApart(files[i], isR)``: the flag says
    whether the file is a response spectrum (odd slots of the
    interleaved list) or a corrected record (even slots).
    """
    workspace = Workspace(workspace_root)
    written: list[str] = []
    if is_response:
        record = read_response(workspace.work(file_name), process="P19")
        d_idx = int(np.argmin(np.abs(record.dampings - GEM_DAMPING)))
        station, comp = record.header.station, record.header.component
        for quantity, values in (
            ("A", record.sa[d_idx]),
            ("V", record.sv[d_idx]),
            ("D", record.sd[d_idx]),
        ):
            series = GemSeries(
                station=station,
                component=comp,
                source="R",
                quantity=quantity,
                abscissa=record.periods,
                values=values,
            )
            path = workspace.gem(station, comp, "R", quantity)
            write_gem(path, series)
            written.append(path.name)
    else:
        record = read_v2(workspace.work(file_name), process="P19")
        station, comp = record.header.station, record.header.component
        t = np.arange(record.header.npts) * record.header.dt
        for quantity, values in (
            ("A", record.acceleration),
            ("V", record.velocity),
            ("D", record.displacement),
        ):
            series = GemSeries(
                station=station,
                component=comp,
                source="2",
                quantity=quantity,
                abscissa=t,
                values=values,
            )
            path = workspace.gem(station, comp, "2", quantity)
            write_gem(path, series)
            written.append(path.name)
    return written


def interleaved_files(ctx: RunContext) -> list[tuple[str, bool]]:
    """The legacy interleaved work list: (file name, isR) pairs.

    Even slots are V2 files, odd slots are R files, exactly like the
    ``files[i*2] / files[i*2+1]`` layout in the paper's listing.
    """
    from repro.resilience.runtime import surviving_entries

    meta = read_metadata(ctx.workspace.work(RESPONSE_META), process="P19")
    out: list[tuple[str, bool]] = []
    for entry in surviving_entries(meta.entries):
        _station, *names = entry
        v2_names, r_names = names[:3], names[3:]
        for v2_name, r_name in zip(v2_names, r_names):
            out.append((v2_name, False))
            out.append((r_name, True))
    return out


@process_unit("P19")
def run_p19(ctx: RunContext) -> None:
    """Generate all GEM files, sequentially."""
    root = str(ctx.workspace.root)
    for file_name, is_response in interleaved_files(ctx):
        set_data_apart(root, file_name, is_response)
