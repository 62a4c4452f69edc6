"""The resilience runtime: activation, retry scopes, quarantine folding.

A run with a fault plan owns one :class:`ResilienceRuntime`, carried
as the ``faults`` of its :class:`~repro.core.recording.RunHandle`.
:func:`current_runtime` is the one lookup: on the driver and its pool
threads it returns the owning runtime; in a pool process, the copy the
worker window unpickled, which holds the plan and nothing else.  So
the same plan governs the serial, thread and process backends, on every
start method, and a worker learns it only from its window.

Authority is split to stay deterministic:

- *Workers* check faults, retry their own records, and report failures
  back through return values (or the thread-local pending list the
  tool emulations fill).  They never write shared state.
- *The driver* folds reports into the :class:`QuarantineSet`, purges
  the quarantined station's artifacts, persists
  ``<root>/resilience/quarantine.json``, and filters quarantined
  records out of every later work list.

Work lists are not only built on the driver: a whole-process task
(P9, P15, P18, ...) on the run's process pool builds its own.  Its
runtime copy does not see the driver's set, so
:func:`surviving_stations` and :func:`surviving_entries` read a
worker's quarantine from the persisted ``quarantine.json``
(:meth:`ResilienceRuntime.live_quarantine`).
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.recording import current
from repro.errors import FormatError, MissingArtifactError, TransientToolError
from repro.resilience.faults import FaultPlan, WorkerCrashError, attempt_scope
from repro.resilience.quarantine import (
    CRASH,
    EXHAUSTED,
    FORMAT,
    FailureReport,
    QuarantineSet,
)
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observability.tracer import Tracer

#: Directory (under the workspace root) holding the persisted quarantine.
RESILIENCE_DIR = "resilience"
QUARANTINE_FILE = "quarantine.json"


class ResilienceRuntime:
    """One workspace's fault plan, retry policy and quarantine state."""

    def __init__(self, root: Path, plan: FaultPlan, *, owner: bool = False) -> None:
        self.root = Path(root)
        self.plan = plan
        self.quarantine = QuarantineSet()
        #: Only the enabling process persists quarantine.json — a pool
        #: process works on an unpickled copy and must not race on the
        #: file; it reads it.
        self._owner_pid = os.getpid() if owner else None
        #: Per-thread failure reports collected inside a tool run, so
        #: concurrent instances on the thread backend stay separate.
        self._pending = threading.local()

    def __reduce__(self):
        # A pool process gets the plan only: its copy is no owner, and
        # reads the quarantine from quarantine.json.
        return (ResilienceRuntime, (self.root, self.plan))

    @property
    def policy(self) -> RetryPolicy:
        return self.plan.policy

    @property
    def marker_dir(self) -> Path:
        return self.root / RESILIENCE_DIR

    # -- pending reports (worker/tool side) -----------------------------

    def _pending_lists(self) -> tuple[list[FailureReport], set[str]]:
        if not hasattr(self._pending, "reports"):
            self._pending.reports = []
            self._pending.records = set()
        return self._pending.reports, self._pending.records

    def pend(self, report: FailureReport) -> None:
        """Park one failure until the caller drains it."""
        reports, records = self._pending_lists()
        reports.append(report)
        records.add(report.record)

    def drain_pending(self) -> list[FailureReport]:
        """Take (and clear) this thread's parked failure reports."""
        reports, records = self._pending_lists()
        out = list(reports)
        reports.clear()
        records.clear()
        return out

    def is_out(self, record: str) -> bool:
        """Whether ``record`` is quarantined or pending-failed here."""
        if record in self.quarantine:
            return True
        _, records = self._pending_lists()
        return record in records

    # -- fault application (worker/tool side) ---------------------------

    def _emit(self, type_: str, **payload: object) -> None:
        """Publish one resilience event to the live bus (no-op when the
        workspace has no event log).  Works from pool workers too: each
        writes its own shard, so retries are visible as they happen."""
        from repro.observability.events import emit

        emit(self.root, type_, **payload)

    def apply_file_faults(self, path: Path) -> None:
        """Corrupt ``path`` if the plan targets it (idempotent)."""
        if self.plan.corrupt_file(path):
            _record_fault("file", Path(path).name)
            self._emit("fault", kind="file", target=Path(path).name)

    def apply_config_faults(self, folder: Path, process: str) -> None:
        """Drop/garble the staged tool.cfg if the plan targets it."""
        kind = self.plan.corrupt_config(folder, process)
        if kind is not None:
            _record_fault(kind, process)
            self._emit("fault", kind=kind, target=process, process=process)

    # -- per-record retry (inside the tool emulations) ------------------

    def run_record(self, process: str, trace: str, body: Callable[[], Any]) -> bool:
        """Run one record's tool body with faults, retry and capture.

        ``trace`` is the record file stem (``ST01l``).  Returns ``True``
        when the body completed; ``False`` when the record failed
        permanently and a :class:`FailureReport` was parked for the
        caller to drain.  Format errors are permanent (retrying a
        truncated file cannot help); transient errors retry up to the
        policy, then exhaust.
        """
        from repro.formats.v1 import station_of_trace

        station = station_of_trace(trace)
        if self.is_out(station):
            return False
        start = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                with attempt_scope(attempt):
                    self.plan.raise_transient(process, trace)
                    body()
                return True
            except (FormatError, MissingArtifactError) as exc:
                self.pend(
                    FailureReport.from_exception(station, process, exc,
                                                 attempts=attempt, kind=FORMAT)
                )
                return False
            except TransientToolError as exc:
                _record_fault("transient", process)
                self._emit("fault", kind="transient", process=process, record=trace)
                if self.policy.gives_up(attempt, time.monotonic() - start):
                    self.pend(
                        FailureReport.from_exception(station, process, exc,
                                                     attempts=attempt, kind=EXHAUSTED)
                    )
                    return False
                _record_retry(process)
                self._emit("retry", process=process, record=trace, attempt=attempt)
                time.sleep(self.policy.delay_s(self.plan.seed, f"{process}:{trace}", attempt))

    # -- per-unit retry (driver side, sequential loops) -----------------

    def check_crash(self, process: str, record: str) -> None:
        """Fire an injected worker crash if the plan targets this unit.

        Called at the top of a loop-unit body (e.g. ``separate_station``)
        so the same fault fires under :meth:`run_unit`, the serial loop,
        and the pool backends alike — the attempt number comes from the
        ambient :func:`~repro.resilience.faults.attempt_scope`.
        """
        self.plan.raise_crash(process, record)

    def run_unit(
        self, process: str, record: str, call: Callable[[], Any]
    ) -> FailureReport | None:
        """Driver-side retry wrapper around one loop unit (e.g. P3).

        Mirrors the chunk-isolation semantics of the parallel loops: a
        :class:`WorkerCrashError` raised by the body is retried with the
        same attempt numbering the pool path uses, a format error is
        permanent, and the returned report (if any) is the unit's
        failure.
        """
        start = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                with attempt_scope(attempt):
                    call()
                return None
            except FormatError as exc:
                return FailureReport.from_exception(record, process, exc,
                                                    attempts=attempt, kind=FORMAT)
            except WorkerCrashError as exc:
                _record_fault("crash", process)
                self._emit("fault", kind="crash", process=process, record=record)
                if self.policy.gives_up(attempt, time.monotonic() - start):
                    return FailureReport.from_exception(record, process, exc,
                                                        attempts=attempt, kind=CRASH)
                _record_retry(process)
                self._emit("retry", process=process, record=record, attempt=attempt)
                time.sleep(self.policy.delay_s(self.plan.seed, f"{process}:{record}", attempt))

    def isolation(self, process: str, describe: Callable[[Any], str] = str):
        """Chunk-isolation config for :func:`repro.parallel.omp.parallel_for`.

        Wires the plan's retry policy and failure classification into
        the runtime-agnostic :class:`~repro.parallel.omp.Isolation`.
        """
        from repro.parallel.omp import Isolation

        plan_seed = self.plan.seed

        def on_caught(record: str, attempt: int) -> None:
            _record_fault("crash", process)
            self._emit("fault", kind="crash", process=process, record=record)

        def on_retry(record: str, attempt: int) -> None:
            _record_retry(process)
            self._emit("retry", process=process, record=record, attempt=attempt)

        def delay(record: str, attempt: int) -> float:
            return self.policy.delay_s(plan_seed, f"{process}:{record}", attempt)

        def on_exhausted(record: str, error: BaseException, attempts: int) -> FailureReport:
            return FailureReport.from_exception(record, process, error, attempts=attempts)

        return Isolation(
            max_attempts=self.policy.max_attempts,
            retryable=(WorkerCrashError,),
            describe=describe,
            attempt_scope=attempt_scope,
            delay=delay,
            on_caught=on_caught,
            on_retry=on_retry,
            on_exhausted=on_exhausted,
        )

    # -- quarantine folding (driver side) -------------------------------

    def quarantine_reports(
        self, reports: Iterable[FailureReport | None], tracer: "Tracer | None" = None
    ) -> list[FailureReport]:
        """Fold failure reports in: dedup, purge, persist, annotate.

        Returns the reports that newly quarantined their record.
        """
        fresh: list[FailureReport] = []
        for report in reports:
            if report is None:
                continue
            if not self.quarantine.add(report):
                continue
            fresh.append(report)
            _purge_station(self.root, report.record)
            _record_quarantine(report.process, report.kind)
            self._emit(
                "quarantine", record=report.record, process=report.process,
                fault_kind=report.kind, attempts=report.attempts,
            )
            if tracer is not None and tracer.enabled:
                tracer.event(
                    "quarantine",
                    record=report.record,
                    process=report.process,
                    fault_kind=report.kind,
                    error=report.error,
                    attempts=report.attempts,
                )
        if fresh and os.getpid() == self._owner_pid and self.marker_dir.is_dir():
            self.quarantine.save(self.marker_dir / QUARANTINE_FILE)
        return fresh

    def live_quarantine(self) -> QuarantineSet:
        """The run's quarantine as of now, from any process.

        The enabling driver's set is authoritative.  Anywhere else (a
        pool worker) the set is reloaded from ``quarantine.json``,
        which the driver writes atomically after every fold.
        """
        if os.getpid() != self._owner_pid:
            path = self.marker_dir / QUARANTINE_FILE
            if path.is_file():
                self.quarantine = QuarantineSet.load(path)
        return self.quarantine

    def surviving(self, records: Iterable[str]) -> list[str]:
        """Filter quarantined records out of a work list."""
        quarantine = self.live_quarantine()
        return [r for r in records if r not in quarantine]


# -- the run's runtime ----------------------------------------------------


def enable_resilience(root: Path | str, plan: FaultPlan) -> ResilienceRuntime:
    """The owning runtime of a run under ``root``, with a fresh quarantine."""
    runtime = ResilienceRuntime(Path(root), plan, owner=True)
    runtime.marker_dir.mkdir(parents=True, exist_ok=True)
    (runtime.marker_dir / QUARANTINE_FILE).unlink(missing_ok=True)
    return runtime


def disable_resilience(root: Path | str) -> None:
    """Remove the run's quarantine directory under ``root``."""
    import shutil

    shutil.rmtree(Path(root) / RESILIENCE_DIR, ignore_errors=True)


def current_runtime() -> ResilienceRuntime | None:
    """The bound run's resilience runtime; ``None`` without a fault plan
    or outside a run."""
    handle = current()
    return None if handle is None else handle.faults


# -- work-list filtering (every stage goes through these) ----------------


def surviving_stations(stations: list[str]) -> list[str]:
    """Drop quarantined stations from a work list (no-op without a plan)."""
    runtime = current_runtime()
    if runtime is None:
        return stations
    return runtime.surviving(stations)


def surviving_entries(entries: list[tuple]) -> list[tuple]:
    """Drop metadata entries whose station (first field) is quarantined.

    The staged plans write the metadata files *before* the tool stages
    run, so a station quarantined at stage IV can still appear in
    ``response.meta`` — every metadata-driven loop filters through here.
    """
    runtime = current_runtime()
    if runtime is None:
        return entries
    quarantine = runtime.live_quarantine()
    return [entry for entry in entries if entry[0] not in quarantine]


# -- purge ---------------------------------------------------------------


def _purge_station(root: Path, station: str) -> None:
    """Remove every artifact of a quarantined station from work/.

    Exact paths from the workspace helpers, not a glob — ``ST1*`` would
    also match ``ST10``.  Partial outputs (a surviving component's
    ``.max`` part written before its sibling failed) go too, keeping
    the merged maxima files survivor-only in every implementation.
    """
    from repro.core.artifacts import Workspace
    from repro.formats.common import COMPONENTS
    from repro.formats.gem import GEM_QUANTITIES, GEM_SOURCES

    ws = Workspace(root)
    victims: list[Path] = [
        ws.plot_accelerograph(station),
        ws.plot_fourier(station),
        ws.plot_response(station),
    ]
    for comp in COMPONENTS:
        victims.append(ws.component_v1(station, comp))
        victims.append(ws.component_v2(station, comp))
        victims.append(ws.component_f(station, comp))
        victims.append(ws.component_r(station, comp))
        victims.append(ws.work_dir / f"{station}{comp}.max")
        for source in GEM_SOURCES:
            for quantity in GEM_QUANTITIES:
                victims.append(ws.gem(station, comp, source, quantity))
    for victim in victims:
        try:
            victim.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - purge must never fail a run
            pass


# -- metrics hooks (no-ops without a collecting registry) ----------------


def _record_fault(kind: str, target: str) -> None:
    from repro.observability.metrics import record_fault

    record_fault(kind, target)


def _record_retry(process: str) -> None:
    from repro.observability.metrics import record_retry

    record_retry(process)


def _record_quarantine(process: str, kind: str) -> None:
    from repro.observability.metrics import record_quarantine

    record_quarantine(process, kind)
