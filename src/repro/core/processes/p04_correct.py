"""P4 — apply the default band-pass correction (Fortran in the original).

Runs the legacy correction tool (:mod:`repro.core.tools`) over the
per-component V1 files, producing first-generation V2 records and the
``maxvals.dat`` maxima archive.  The original program is un-modifiable,
so the fully-parallel implementation executes *instances* of the tool
concurrently inside temporary folders (stage IV) rather than threading
its interior; the sequential form simply points the tool at the work
directory.
"""

from __future__ import annotations

from repro.core.artifacts import FILTER_PARAMS, MAXVALS
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.core.processes.common import merge_max_files, require
from repro.core.tools import TOOL_CONFIG, correction_tool, write_tool_config


def run_correction_sequential(
    ctx: RunContext, params_name: str, maxvals_name: str, process: str = "P4"
) -> None:
    """Shared body of P4 and P13: run the tool in-place, merge maxima."""
    from repro.resilience.runtime import current_runtime

    work = ctx.workspace.work_dir
    runtime = current_runtime()
    require(ctx.workspace.work(params_name), "P4/P13")
    write_tool_config(work, params=params_name, process=process)
    if runtime is not None:
        # Config faults hit the very tool.cfg just staged — fatal to
        # the event in this mode exactly as in the temp-folder mode.
        runtime.apply_config_faults(work, process)
    try:
        correction_tool(work)
    finally:
        if runtime is not None:
            reports = runtime.drain_pending()
            if reports:
                # Purge before the merge so the maxvals archive only
                # aggregates maxima of surviving stations.
                runtime.quarantine_reports(reports, tracer=ctx.tracer)
        (work / TOOL_CONFIG).unlink(missing_ok=True)
    merge_max_files(work, maxvals_name)


@process_unit("P4")
def run_p04(ctx: RunContext) -> None:
    """Default-corner correction pass over all component files."""
    run_correction_sequential(ctx, FILTER_PARAMS, MAXVALS)
