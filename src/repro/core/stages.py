"""The eleven-stage reordering of the optimized pipeline (paper Fig. 9).

Each stage lists its member processes and the parallel strategy each
parallel implementation applies to it:

========  ==============  ==================  ==================
stage     processes       partially parallel  fully parallel
========  ==============  ==================  ==================
I         P0, P1          tasks               tasks
II        P2, P5, P8, P17 tasks               tasks
III       P3              sequential          loop (stations)
IV        P4              sequential          loop (temp folders)
V         P7              sequential          loop (temp folders)
VI        P10             loop (components)   loop (components)
VII       P11             sequential          sequential (<2 ms)
VIII      P13             sequential          loop (temp folders)
IX        P16             sequential          loop (3N traces)
X         P19             loop (2N files)     loop (2N files)
XI        P9, P15, P18    tasks               tasks
========  ==============  ==================  ==================
"""

from __future__ import annotations

from dataclasses import dataclass

#: Strategy names used in StageSpec.
SEQ = "seq"
LOOP = "loop"
TASKS = "tasks"
TEMP_FOLDERS = "temp_folders"


@dataclass(frozen=True)
class StageSpec:
    """One stage of the reordered pipeline."""

    name: str
    processes: tuple[int, ...]
    partial_strategy: str
    full_strategy: str
    #: What the loop iterates over (documentation for reports).
    loop_unit: str = ""


#: The eleven stages in execution order.
STAGES: tuple[StageSpec, ...] = (
    StageSpec("I", (0, 1), TASKS, TASKS),
    StageSpec("II", (2, 5, 8, 17), TASKS, TASKS),
    StageSpec("III", (3,), SEQ, LOOP, loop_unit="stations"),
    StageSpec("IV", (4,), SEQ, TEMP_FOLDERS, loop_unit="stations"),
    StageSpec("V", (7,), SEQ, TEMP_FOLDERS, loop_unit="stations"),
    StageSpec("VI", (10,), LOOP, LOOP, loop_unit="components"),
    StageSpec("VII", (11,), SEQ, SEQ),
    StageSpec("VIII", (13,), SEQ, TEMP_FOLDERS, loop_unit="stations"),
    StageSpec("IX", (16,), SEQ, LOOP, loop_unit="traces"),
    StageSpec("X", (19,), LOOP, LOOP, loop_unit="files"),
    StageSpec("XI", (9, 15, 18), TASKS, TASKS),
)


def stage_of_process(pid: int) -> StageSpec:
    """The stage a process belongs to (raises for removed processes)."""
    for stage in STAGES:
        if pid in stage.processes:
            return stage
    raise KeyError(f"P{pid} is not part of the optimized stage plan")

