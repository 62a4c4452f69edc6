"""Parallel runtime.

Two halves:

1. **Real execution** — OpenMP-shaped primitives (:func:`parallel_for`
   with static/dynamic/guided schedules, :class:`TaskGroup` with
   task/taskwait semantics) over pluggable backends: ``serial``,
   ``thread`` (overlaps what releases the GIL: I/O, NumPy kernels,
   stage IX's compiled filter) and ``process`` (overlaps pure-Python
   stages too).  The worker
   pool is a run's only parallelism: :mod:`repro.parallel.native`
   pins every loaded OpenBLAS (numpy's; scipy's only if the caller
   loaded it) to one thread for the run.

2. **Simulated execution** — a deterministic machine model
   (:class:`SimulatedMachine`) with heterogeneous worker speeds and an
   I/O-contention term, plus a dependency-aware fluid scheduler.  The
   benchmark harness replays each pipeline implementation's task graph
   on a model of the paper's i5-12450H (8 cores / 12 logical
   processors) to reproduce the published speedups on hardware this
   container does not have.
"""

from repro.parallel.backend import Backend, available_backends, resolve_workers
from repro.parallel.chunks import Schedule, chunk_indices
from repro.parallel.omp import TaskGroup, parallel_for
from repro.parallel.simulate import (
    SimTask,
    SimulatedMachine,
    SimulationResult,
    PAPER_MACHINE,
    simulate_task_graph,
)

__all__ = [
    "Backend",
    "available_backends",
    "resolve_workers",
    "Schedule",
    "chunk_indices",
    "TaskGroup",
    "parallel_for",
    "SimTask",
    "SimulatedMachine",
    "SimulationResult",
    "PAPER_MACHINE",
    "simulate_task_graph",
]
