"""P15 — plot the definitive accelerographs (Fortran in the original).

Renders one ``<station>.ps`` plot per station (three stacked A/V/D
panels, the paper's Fig. 2 layout) from the definitive V2 records.
Overwrites whatever P6 produced in the original implementation.
Parallelized as a whole task in stage XI.
"""

from __future__ import annotations

from repro.core.artifacts import ACCGRAPH_META
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.formats.filelist import read_metadata
from repro.formats.v2 import read_v2
from repro.plotting.seismo import plot_accelerograph


@process_unit("P15")
def run_p15(ctx: RunContext) -> None:
    """Plot every station's definitive corrected motion."""
    from repro.resilience.runtime import surviving_entries

    meta = read_metadata(ctx.workspace.work(ACCGRAPH_META), process="P15")
    for entry in surviving_entries(meta.entries):
        station, *v2_names = entry
        records = {}
        for name in v2_names:
            rec = read_v2(ctx.workspace.work(name), process="P15")
            records[rec.header.component] = rec
        plot_accelerograph(ctx.workspace.plot_accelerograph(station), records)
