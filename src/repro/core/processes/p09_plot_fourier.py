"""P9 — plot the Fourier spectra (Fortran in the original).

Renders one ``<station>f.ps`` log-log plot per station from the F
files, driven by ``fouriergraph.meta``.  Parallelized as a whole task
(stage XI) in both parallel implementations.
"""

from __future__ import annotations

from repro.core.artifacts import FOURIERGRAPH_META
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.formats.filelist import read_metadata
from repro.formats.fourier import read_fourier
from repro.plotting.seismo import plot_fourier_spectrum


@process_unit("P9")
def run_p09(ctx: RunContext) -> None:
    """Plot every station's Fourier spectra."""
    from repro.resilience.runtime import surviving_entries

    meta = read_metadata(ctx.workspace.work(FOURIERGRAPH_META), process="P9")
    for entry in surviving_entries(meta.entries):
        station, *f_names = entry
        records = {}
        for name in f_names:
            rec = read_fourier(ctx.workspace.work(name), process="P9")
            records[rec.header.component] = rec
        plot_fourier_spectrum(ctx.workspace.plot_fourier(station), records)
