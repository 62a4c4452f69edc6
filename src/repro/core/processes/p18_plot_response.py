"""P18 — plot the response spectra (Fortran in the original).

Renders one ``<station>r.ps`` log-log plot per station (the paper's
Fig. 4 layout) from the R files.  Parallelized as a whole task in
stage XI.
"""

from __future__ import annotations

from repro.core.artifacts import RESPONSEGRAPH_META
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.formats.filelist import read_metadata
from repro.formats.response import read_response
from repro.plotting.seismo import plot_response_spectrum


@process_unit("P18")
def run_p18(ctx: RunContext) -> None:
    """Plot every station's response spectra."""
    from repro.resilience.runtime import surviving_entries

    meta = read_metadata(ctx.workspace.work(RESPONSEGRAPH_META), process="P18")
    for entry in surviving_entries(meta.entries):
        station, *r_names = entry
        records = {}
        for name in r_names:
            rec = read_response(ctx.workspace.work(name), process="P18")
            records[rec.header.component] = rec
        plot_response_spectrum(ctx.workspace.plot_response(station), records)
