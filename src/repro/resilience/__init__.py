"""Fault injection, retry, and quarantine for the pipeline.

The paper's full parallelization runs un-modifiable legacy tools
concurrently in temporary folders — exactly the setting where a
truncated V1 file, a vanished ``tool.cfg`` or a crashed worker used to
abort the whole event batch.  This package makes failure a first-class,
*deterministic* part of the runtime:

- :mod:`repro.resilience.faults` — a seeded, JSON-serializable
  :class:`FaultPlan` that injects file corruption, config loss,
  transient tool errors and worker crashes, replayable bit-identically;
- :mod:`repro.resilience.retry` — :class:`RetryPolicy` with
  exponential backoff, deterministic jitter and per-operation deadlines;
- :mod:`repro.resilience.quarantine` — classified
  :class:`FailureReport`/:class:`QuarantineSet` so one bad station
  degrades the bulletin instead of suppressing it;
- :mod:`repro.resilience.runtime` — the run's runtime, carried by its
  run handle (:mod:`repro.core.recording`) to driver threads and pool
  workers alike, so the same plan governs them all;
- :mod:`repro.resilience.chaos` — the seeded soak behind ``repro-chaos``
  asserting convergence across implementations and backends.

The semantic contract (see docs/resilience.md): with no plan installed
the clean path is byte-identical to a build without this package; with
a plan, every implementation and backend converges to the same
quarantine set, the same retry counts and the same degraded bulletin.
"""

from __future__ import annotations

from repro.resilience.faults import FaultPlan, FaultSpec, WorkerCrashError
from repro.resilience.quarantine import FailureReport, QuarantineSet
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import (
    ResilienceRuntime,
    current_runtime,
    disable_resilience,
    enable_resilience,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "WorkerCrashError",
    "FailureReport",
    "QuarantineSet",
    "RetryPolicy",
    "ResilienceRuntime",
    "current_runtime",
    "disable_resilience",
    "enable_resilience",
]
