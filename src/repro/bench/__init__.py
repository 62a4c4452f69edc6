"""Benchmark harness: regenerates every evaluation artifact of the paper.

Two modes exist for every experiment:

- **model mode** — per-process costs from the calibrated cost model
  (:mod:`repro.bench.costmodel`, anchored only on the largest event's
  published per-stage data), replayed on the simulated i5-12450H
  (:mod:`repro.parallel.simulate`).  This reproduces the paper's
  numbers on hardware with any core count, one core included.
- **measured mode** — real wall-clock runs of the Python pipeline on
  scaled-down synthetic events (:mod:`repro.bench.harness`), which
  documents what the library itself does on the present machine.

Experiment index (see DESIGN.md §5): Table I (:mod:`table1`), Fig. 11
(:mod:`figure11`), Fig. 12 (:mod:`figure12`), Fig. 13 (:mod:`figure13`)
and the ablation studies of §VIII (:mod:`ablation`).
"""

from repro.bench.paper_data import (
    PAPER_TABLE1,
    PAPER_STAGE_SPEEDUPS,
    PaperEventRow,
)
from repro.bench.costmodel import CostModel, Overheads, DEFAULT_COST_MODEL
from repro.bench.workloads import EventWorkload, paper_workloads, scaled_workload
from repro.bench.taskgraphs import build_sim_tasks, simulate_implementation
from repro.bench.table1 import table1_model, Table1Row
from repro.bench.figure11 import figure11_model, StageRow
from repro.bench.figure12 import figure12_model
from repro.bench.figure13 import figure13_model, Figure13Row
from repro.bench.harness import measure_implementations, MeasuredRow
from repro.bench.report import format_table, comparison_table

__all__ = [
    "PAPER_TABLE1",
    "PAPER_STAGE_SPEEDUPS",
    "PaperEventRow",
    "CostModel",
    "Overheads",
    "DEFAULT_COST_MODEL",
    "EventWorkload",
    "paper_workloads",
    "scaled_workload",
    "build_sim_tasks",
    "simulate_implementation",
    "table1_model",
    "Table1Row",
    "figure11_model",
    "StageRow",
    "figure12_model",
    "figure13_model",
    "Figure13Row",
    "measure_implementations",
    "MeasuredRow",
    "format_table",
    "comparison_table",
]
