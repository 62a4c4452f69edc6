"""P7 — apply the Fourier transformation (Fortran in the original).

Runs the legacy Fourier tool over the corrected V2 records, producing
the ``<station><comp>.f`` spectra files.  Like P4/P13, the original
program is un-modifiable, so the fully-parallel implementation runs
concurrent tool instances in temporary folders (stage V).
"""

from __future__ import annotations

from repro.core.artifacts import FOURIER_META
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.core.processes.common import require
from repro.core.tools import TOOL_CONFIG, fourier_tool, write_tool_config


@process_unit("P7")
def run_p07(ctx: RunContext) -> None:
    """Fourier-transform every corrected component, sequentially."""
    from repro.resilience.runtime import current_runtime

    work = ctx.workspace.work_dir
    runtime = current_runtime()
    require(ctx.workspace.work(FOURIER_META), "P7")
    write_tool_config(
        work, taper=ctx.taper_fraction, maxperiod=ctx.fourier_max_period, process="P7"
    )
    if runtime is not None:
        runtime.apply_config_faults(work, "P7")
    try:
        fourier_tool(work)
    finally:
        if runtime is not None:
            reports = runtime.drain_pending()
            if reports:
                runtime.quarantine_reports(reports, tracer=ctx.tracer)
        (work / TOOL_CONFIG).unlink(missing_ok=True)
