"""Temp-folder staging for concurrent legacy tools (stages IV, V, VIII).

The paper's key trick for the un-modifiable Fortran programs (§VI):
run several *instances* concurrently, each inside its own temporary
folder, moving inputs in and outputs back out.  This module reproduces
the mechanics faithfully:

1. create ``work/tmp/<stage>_<index>/``;
2. hard-link the instance's input files into it (a copy only where the
   filesystem has no hard links) and write its tool.cfg there;
3. run the tool against the folder — the tool sees only the folder,
   exactly like a binary launched with that working directory;
4. move the produced outputs back into ``work/``;
5. delete the folder.

(The original also had to copy the EXE into each folder sequentially
"to avoid races"; our tool is a function, so that step has no
analogue — the cost model charges for it instead.)

Outputs land in distinct destination files per instance, so the
parallel loop is race-free; merged artifacts (the ``*.max`` lines) are
combined deterministically afterwards.

A link costs a directory entry where a copy creates and fills a file,
and staging is pure communication cost.  The tools only read their
inputs and write outputs under new names, so a linked input is never
written through; the one writer of staged inputs, the resilience
layer's file faults, replaces the folder's file rather than writing
into it (:func:`repro.resilience.faults.garble_line`).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

from repro.core.artifacts import Workspace
from repro.core.auditing import record, unit_scope
from repro.core.tools import correction_tool, fourier_tool, write_tool_config
from repro.errors import MissingArtifactError, PipelineError

#: Tool registry: names resolvable inside worker processes.
TOOLS = {
    "correction": correction_tool,
    "fourier": fourier_tool,
}

#: Which pipeline process each temp-folder stage executes (Fig. 9).
STAGE_PROCESS = {
    "IV": "P4",
    "V": "P7",
    "VIII": "P13",
}


@dataclass(frozen=True)
class StagedInstance:
    """One concurrent tool instance: what to stage in and collect out."""

    stage: str
    index: int
    tool: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    config: tuple[tuple[str, str], ...] = field(default=())
    #: The record (station) this instance serves — lets the resilience
    #: layer name failures and tolerate the record's missing outputs.
    unit: str = ""

    @property
    def folder_name(self) -> str:
        """Name of the instance's temp folder."""
        return f"{self.stage.lower()}_{self.index:04d}"


def run_staged_instance(workspace_root: str, instance: StagedInstance) -> list:
    """Execute one tool instance in its temp folder (picklable unit).

    Returns the instance's failure reports — empty on a clean run; under
    an active resilience runtime, the reports of records the tool had to
    skip (whose declared outputs are then tolerated missing rather than
    raised as :class:`PipelineError`).  Always removes the temp folder.
    """
    if instance.tool not in TOOLS:
        raise PipelineError(f"unknown staged tool {instance.tool!r}")
    workspace = Workspace(workspace_root)
    work = workspace.work_dir
    folder = workspace.tmp_dir / instance.folder_name
    process = STAGE_PROCESS.get(instance.stage.upper(), f"stage-{instance.stage}")
    from repro.resilience.runtime import current_runtime

    runtime = current_runtime()
    reports: list = []
    with unit_scope(process, instance.folder_name):
        try:
            folder.mkdir(parents=True)
        except FileExistsError:
            # Left by a killed run: its entries may be links into work/.
            shutil.rmtree(folder)
            folder.mkdir()
        try:
            for name in instance.inputs:
                src = work / name
                if not src.exists():
                    raise MissingArtifactError(str(src), f"stage {instance.stage}")
                # Links and shutil bypass Path.open, so the staging and
                # the collection moves are recorded explicitly.
                record(workspace.root, f"work/{name}", "read")
                _stage_in(src, folder / name)
            if instance.config:
                write_tool_config(folder, **dict(instance.config))
            if runtime is not None:
                runtime.apply_config_faults(folder, process)
            TOOLS[instance.tool](folder)
            if runtime is not None:
                reports = runtime.drain_pending()
            failed = {r.record for r in reports}
            for name in instance.outputs:
                produced = folder / name
                if not produced.exists():
                    if _station_of_artifact(name) in failed:
                        # The tool reported this record's failure; its
                        # outputs (and any sibling component's written
                        # before the failure) are dropped at quarantine.
                        continue
                    raise PipelineError(
                        f"stage {instance.stage} instance {instance.index}: "
                        f"tool {instance.tool!r} did not produce {name}"
                    )
                record(workspace.root, f"work/{name}", "write")
                shutil.move(str(produced), work / name)
        finally:
            shutil.rmtree(folder, ignore_errors=True)
    return reports


def _stage_in(src, dest) -> None:
    """Hard-link ``src`` to ``dest``; copy where links are unsupported."""
    try:
        os.link(src, dest)
    except OSError:
        shutil.copy2(src, dest)


def _station_of_artifact(name: str) -> str:
    """Station of a per-trace artifact file name (``ST01l.v2`` -> ``ST01``)."""
    from repro.formats.v1 import station_of_trace

    return station_of_trace(name.split(".", 1)[0])
