"""P3 — separate raw records by component (Fortran in the original).

Reads every ``<station>.v1`` named in ``v1files.lst`` and writes the
three per-component ``<station><comp>.v1`` files the correction stages
consume.  The fully-parallel implementation maps
:func:`separate_station` over stations (the paper's Fortran
``omp do`` — §VI-A).
"""

from __future__ import annotations

from repro.core.artifacts import V1_LIST, Workspace
from repro.core.auditing import process_unit
from repro.core.context import RunContext
from repro.formats.common import COMPONENTS
from repro.formats.filelist import read_filelist
from repro.formats.v1 import read_v1, write_component_v1


def stations_from_list(workspace: Workspace) -> list[str]:
    """Station codes from ``v1files.lst`` (strips the .v1 suffix).

    Every stage's work list comes from here, so filtering quarantined
    stations at this one point keeps the whole plan — sequential or
    staged — operating on the survivors.
    """
    from repro.resilience.runtime import surviving_stations

    names = read_filelist(workspace.work(V1_LIST), process="P3")
    return surviving_stations([name[: -len(".v1")] for name in names])


@process_unit("P3", unit_arg=1)
def separate_station(workspace_root: str, station: str, process: str = "P3") -> str:
    """Unit of P3's loop: split one raw record into component files.

    ``process`` labels the fault-injection point: P12's redundant
    re-separation runs the same code but is its own execution point, so
    a fault targeting ``P3:<station>`` must not fire again there (it
    would skew retry counts on the one implementation that runs P12).
    """
    from repro.resilience.runtime import current_runtime

    workspace = Workspace(workspace_root)
    runtime = current_runtime()
    if runtime is not None:
        # The injected worker-crash point: inside the loop unit, so the
        # serial retry wrapper and the pool isolation see the same fault.
        runtime.check_crash(process, station)
    record = read_v1(workspace.raw_v1(station), process="P3")
    for comp in COMPONENTS:
        write_component_v1(workspace.component_v1(station, comp), record.component_record(comp))
    return station


@process_unit("P3")
def run_p03(ctx: RunContext, process: str = "P3") -> None:
    """Separate every station's record, sequentially."""
    from repro.resilience.runtime import current_runtime

    runtime = current_runtime()
    if runtime is None:
        for station in stations_from_list(ctx.workspace):
            separate_station(str(ctx.workspace.root), station, process)
        return
    reports = []
    for station in stations_from_list(ctx.workspace):
        report = runtime.run_unit(
            process,
            station,
            lambda s=station: separate_station(str(ctx.workspace.root), s, process),
        )
        if report is not None:
            reports.append(report)
    if reports:
        runtime.quarantine_reports(reports, tracer=ctx.tracer)
