"""P6 — plot first-generation corrected signals (redundant).

Present only in the Sequential Original implementation: it renders the
``<station>.ps`` accelerograph plots from the *default-corrected* V2
records, which P15 later overwrites with plots of the definitive
records.  The optimization analysis (paper §IV) removes it precisely
because nothing reads its output before the overwrite.
"""

from __future__ import annotations

from repro.core.artifacts import ACCGRAPH_META
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.formats.filelist import read_metadata
from repro.formats.v2 import read_v2
from repro.plotting.seismo import plot_accelerograph


@process_unit("P6")
def run_p06(ctx: RunContext) -> None:
    """Plot the (about-to-be-overwritten) default-corrected records."""
    from repro.resilience.runtime import surviving_entries

    meta = read_metadata(ctx.workspace.work(ACCGRAPH_META), process="P6")
    for entry in surviving_entries(meta.entries):
        station, *v2_names = entry
        records = {}
        for name in v2_names:
            rec = read_v2(ctx.workspace.work(name), process="P6")
            records[rec.header.component] = rec
        plot_accelerograph(ctx.workspace.plot_accelerograph(station), records)
