"""The run handle: what one pipeline run records, and where.

A run's recorders belong to the run, not to the process.  The driver
opens one :class:`RunHandle` from the context's ``audit``, ``events``
and ``resilience`` fields and binds it for the run's duration
(:meth:`repro.core.runner.PipelineImplementation.run`).  The worker
window of :mod:`repro.parallel.omp` carries the handle to every chunk
and task and binds it around the body, so a pool thread or pool
process, on any start method, records exactly what the driver's handle
says.  Each recorder asks the bound handle:

- :mod:`repro.core.auditing` logs an access only under an auditing
  handle's root;
- :mod:`repro.observability.events` emits only to an event-logging
  handle's root;
- :func:`repro.resilience.runtime.current_runtime` is the handle's
  fault runtime.

Outside a bound handle nothing is audited, emitted or fault-injected,
whatever marker directories a workspace holds.  A binding carries its
origin pid: a pool process forked while the driver held a handle
inherits the driver's context, and a foreign pid counts as unbound.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class RunHandle:
    """Which recorders one run switched on, under which root (picklable)."""

    root: str
    audit: bool = False
    events: bool = False
    #: The run's :class:`~repro.resilience.runtime.ResilienceRuntime`,
    #: or ``None`` without a fault plan.  It pickles to its plan, so a
    #: pool process works on its own copy.
    faults: Any = None


_BOUND: ContextVar[tuple[RunHandle, int] | None] = ContextVar(
    "repro_run_handle", default=None
)


def current() -> RunHandle | None:
    """The handle bound here, unless it was inherited across a fork."""
    bound_ = _BOUND.get()
    if bound_ is None or bound_[1] != os.getpid():
        return None
    return bound_[0]


@contextmanager
def bound(handle: RunHandle | None) -> Iterator[None]:
    """Bind ``handle`` (``None``: no run) for the block."""
    token = _BOUND.set(None if handle is None else (handle, os.getpid()))
    try:
        yield
    finally:
        _BOUND.reset(token)
