"""The paper's primary contribution: the accelerographic records
processing pipeline and its four implementations.

- :mod:`repro.core.artifacts`    — workspace layout and file naming.
- :mod:`repro.core.context`      — run configuration (:class:`RunContext`).
- :mod:`repro.core.tools`        — "legacy binary" emulations: directory-
  driven tools with no API surface, exactly like the original Fortran
  programs the paper could not modify.
- :mod:`repro.core.processes`    — the 20 numbered processes P0–P19.
- :mod:`repro.core.registry`     — process metadata (language, cost tag,
  declared reads/writes).
- :mod:`repro.core.dependencies` — the input/output dependency analysis
  (networkx DAG, stage-plan validation, antichain discovery).
- :mod:`repro.core.stages`       — the 11-stage reordering of Fig. 9.
- :mod:`repro.core.tempfolders`  — temp-folder staging used to run
  un-modifiable tools concurrently (stages IV, V, VIII).
- :mod:`repro.core.incremental` — digests and the output cache of the
  ``incremental`` policy; :mod:`repro.core.runner` — shared result
  types.

The four implementations themselves are scheduling policies over one
engine: see :mod:`repro.engine` and ``repro.engine.PAPER_POLICIES``.
"""

from repro.core.artifacts import Workspace
from repro.core.context import ParallelSettings, RunContext
from repro.core.runner import PipelineImplementation, PipelineResult, ProcessTiming
from repro.core.batch import BatchRunner, Bulletin, EventSummary
from repro.core.verify import (
    VerificationReport,
    compare_workspaces,
    verify_inventory,
    workspace_digests,
)
from repro.core.registry import PROCESSES, ProcessSpec
from repro.core.stages import STAGES, StageSpec
from repro.core.dependencies import (
    build_process_graph,
    parallelizable_sets,
    validate_sequential_order,
)

__all__ = [
    "Workspace",
    "ParallelSettings",
    "RunContext",
    "PipelineImplementation",
    "PipelineResult",
    "ProcessTiming",
    "BatchRunner",
    "Bulletin",
    "EventSummary",
    "VerificationReport",
    "compare_workspaces",
    "verify_inventory",
    "workspace_digests",
    "PROCESSES",
    "ProcessSpec",
    "STAGES",
    "StageSpec",
    "build_process_graph",
    "validate_sequential_order",
    "parallelizable_sets",
]
