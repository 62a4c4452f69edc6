"""The live run event bus: an append-only JSONL telemetry stream.

Where the tracer produces a span tree *after* the run and the metrics
registry a scrape *after* the run, this module streams structured
lifecycle events **while the run executes**: run/stage/unit/task
boundaries from the engine and the parallel runtime, retry/quarantine/
fault events from the resilience runtime, and periodic resource
heartbeats.  ``repro-top`` tails the stream to render live progress and
an ETA; the HTML run report and the run ledger read it post-hoc.

The write path mirrors :mod:`repro.core.auditing` exactly: a run with
``ctx.events`` binds a :class:`~repro.core.recording.RunHandle` that
logs events for its workspace root, and while it is bound every writer
appends JSON lines to its own per-(pid, thread) shard file in
``<root>/.events/`` (line-buffered, so a tail sees events within one
write of real time).  Pool workers learn that the run is event-logged
only from the handle their worker window binds, on every backend and
start method; the window's emission :func:`channel` adds the enclosing
stage and span.  The ``.events/`` directory is an output: building a
``Workspace`` over it switches nothing on.  Shards are merged on read
with a deterministic total order:
``(t, pid, tid, seq)``, where ``seq`` is each writer's own monotonic
counter — so two reads of a finished log always agree, and ties cannot
reorder one writer's events.

Unlike the audit log, the event log *survives* the run: ``repro-report``
and the ledger read it afterwards, so :func:`release_events` closes the
writers but keeps the files (:func:`clear_events` removes them).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator

from repro.core.recording import RunHandle, bound, current

#: Directory (under the workspace root) holding a run's event log.
EVENTS_DIR = ".events"

#: Version tag carried by every ``run_started`` event.
SCHEMA = "repro-events/1"

#: Schemas :func:`validate_events` accepts.
KNOWN_SCHEMAS = ("repro-events/1",)

#: Open shard writers keyed by (root, pid, thread id).
_writers: dict[tuple[str, int, int], Any] = {}
#: Per-writer monotonic sequence numbers (same key as ``_writers``).
_seqs: dict[tuple[str, int, int], int] = {}
_writers_lock = threading.Lock()

#: The stage label enclosing the current driver code path (set by the
#: engine around each region), with its origin pid.
_STAGE: ContextVar[tuple[str, int] | None] = ContextVar(
    "repro_events_stage", default=None
)

#: Required payload fields per event type (the envelope fields ``type``
#: ``t``/``pid``/``tid``/``seq`` are checked separately).
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "run_started": ("schema", "implementation", "workspace", "workers"),
    "plan": ("policy", "regions"),
    "stage_started": ("stage",),
    "stage_finished": ("stage", "duration_s"),
    "units_total": ("span", "total"),
    "unit_finished": ("span", "count", "duration_s", "worker"),
    "task_finished": ("span", "duration_s", "worker"),
    "process_finished": ("process", "stage", "duration_s"),
    "retry": ("process",),
    "fault": ("kind",),
    "quarantine": ("record", "process"),
    "heartbeat": ("rss_bytes",),
    "batch_event_finished": ("event_id", "status"),
    "run_finished": ("total_s", "status"),
}


# -- activation ----------------------------------------------------------


def enable_events(root: Path | str) -> Path:
    """Create the event-log directory of a run under ``root``.

    Shards of a previous run in the same workspace are removed first:
    one event log describes one run.
    """
    root = Path(root)
    log_dir = root / EVENTS_DIR
    log_dir.mkdir(parents=True, exist_ok=True)
    _close_writers(str(root))
    with _writers_lock:
        for skey in [k for k in _seqs if k[0] == str(root)]:
            _seqs.pop(skey, None)
    for stale in log_dir.glob("events-*.jsonl"):
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - cleanup must never fail a run
            pass
    return log_dir


def release_events(root: Path | str) -> None:
    """Close this process's shards for ``root``; the log stays on disk.

    ``repro-top`` may still be attached and the report/ledger read the
    finished log.
    """
    _close_writers(str(Path(root)))


def clear_events(root: Path | str) -> None:
    """Close the shards and remove the log directory."""
    root = Path(root)
    release_events(root)
    shutil.rmtree(root / EVENTS_DIR, ignore_errors=True)


def _logged_root() -> str | None:
    """The bound run's root, when that run logs events."""
    handle = current()
    return handle.root if handle is not None and handle.events else None


def is_active(root: Path | str) -> bool:
    """Whether events under ``root`` are emitted here and now."""
    return _logged_root() == str(root)


def _close_writers(key: str) -> None:
    # Sequence counters survive the close on purpose: a late event
    # (e.g. the batch layer's summary after the runner released the
    # log) reopens the same shard and must keep its seq monotonic.
    with _writers_lock:
        for wkey in [k for k in _writers if k[0] == key]:
            try:
                _writers.pop(wkey).close()
            except OSError:  # pragma: no cover - close failures are harmless
                pass


# -- the stage scope -----------------------------------------------------


@contextmanager
def stage_scope(stage: str) -> Iterator[None]:
    """Attribute events emitted inside the block to ``stage``.

    Like the audit scope, a stage inherited across a fork (lazily
    spawned pool workers copy the submitting thread's context) carries
    a foreign pid and counts as absent.
    """
    token = _STAGE.set((stage, os.getpid()))
    try:
        yield
    finally:
        _STAGE.reset(token)


def current_stage() -> str | None:
    """The enclosing stage label, if any (fork-safe)."""
    scope = _STAGE.get()
    if scope is None or scope[1] != os.getpid():
        return None
    return scope[0]


def channel(span: str) -> tuple[str, str | None, str] | None:
    """A picklable ``(root, stage, span)`` emission channel, or ``None``.

    ``None`` unless the bound run logs events — the single check that
    keeps the disabled path free.  The tuple rides in the worker window
    of every chunk and task, beside the run handle that lets the
    worker's :func:`emit_channel` calls write.
    """
    root = _logged_root()
    if root is None:
        return None
    return (root, current_stage(), span)


# -- emission ------------------------------------------------------------


def _writer_entry(key: str):
    wkey = (key, os.getpid(), threading.get_ident())
    writer = _writers.get(wkey)
    if writer is None:
        with _writers_lock:
            writer = _writers.get(wkey)
            if writer is None:
                log_dir = Path(key) / EVENTS_DIR
                name = f"events-{wkey[1]}-{wkey[2]}.jsonl"
                writer = open(log_dir / name, "a", buffering=1, encoding="utf-8")
                _writers[wkey] = writer
                _seqs.setdefault(wkey, 0)
    return wkey, writer


def emit(root: Path | str, type_: str, **payload: Any) -> None:
    """Append one event to this writer's shard (no-op unless the bound
    run logs events under ``root``)."""
    key = str(root)
    if _logged_root() != key:
        return
    event: dict[str, Any] = {
        "type": type_,
        "t": time.time(),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    event.update(payload)
    try:
        wkey, writer = _writer_entry(key)
        _seqs[wkey] = event["seq"] = _seqs.get(wkey, 0) + 1
        writer.write(json.dumps(event) + "\n")
    except OSError:  # pragma: no cover - a dead log never fails the run
        pass


def emit_channel(chan: tuple | None, type_: str, **payload: Any) -> None:
    """Emit through a :func:`channel` tuple (the omp worker window calls this)."""
    if chan is None:
        return
    root, stage, span = chan
    if stage is not None:
        payload.setdefault("stage", stage)
    payload.setdefault("span", span)
    emit(root, type_, **payload)


# -- the resource heartbeat ----------------------------------------------


class Heartbeat(threading.Thread):
    """Daemon thread emitting periodic ``heartbeat`` resource events.

    Reuses the /proc readers of
    :mod:`repro.observability.resources`; on platforms without /proc
    the heartbeat emits RSS-only events via ``resource.getrusage``
    fallbacks there, or nothing when even that fails — a heartbeat must
    never fail a run.  It emits under the run ``handle`` it is given: a
    thread starts with no handle bound.
    """

    def __init__(self, handle: RunHandle, interval_s: float = 0.5) -> None:
        super().__init__(name="repro-events-heartbeat", daemon=True)
        self.handle = handle
        self.interval_s = max(0.05, float(interval_s))
        # Not named _stop: Thread has an internal method of that name.
        self._halt = threading.Event()
        self._prev_ticks: list[tuple[int, int]] | None = None

    def _sample(self) -> dict[str, Any] | None:
        try:
            from repro.observability.resources import (
                _read_core_ticks,
                _read_status,
            )

            rss, threads, vol, invol = _read_status()
            payload: dict[str, Any] = {
                "rss_bytes": rss,
                "threads": threads,
                "ctx_switches": vol + invol,
            }
            ticks = _read_core_ticks()
            if ticks and self._prev_ticks and len(ticks) == len(self._prev_ticks):
                busy = sum(b - pb for (b, _), (pb, _) in zip(ticks, self._prev_ticks))
                total = sum(t - pt for (_, t), (_, pt) in zip(ticks, self._prev_ticks))
                if total > 0:
                    payload["utilization"] = busy / total
                    payload["cores"] = len(ticks)
            self._prev_ticks = ticks or None
            return payload
        except Exception:  # pragma: no cover - heartbeat must never fail
            return None

    def run(self) -> None:  # pragma: no cover - exercised via integration
        with bound(self.handle):
            while not self._halt.is_set():
                payload = self._sample()
                if payload is not None:
                    emit(self.handle.root, "heartbeat", **payload)
                self._halt.wait(self.interval_s)

    def stop(self) -> None:
        """Stop the thread (joining up to one interval)."""
        self._halt.set()
        self.join(timeout=self.interval_s + 1.0)


# -- reading -------------------------------------------------------------


def read_events(root: Path | str) -> list[dict[str, Any]]:
    """Every event recorded for ``root``, in deterministic total order.

    Shards are merged by ``(t, pid, tid, seq)`` — wall-clock arrival
    order with each writer's own monotonic counter breaking ties, so
    repeated reads of the same log always agree and one writer's events
    never reorder.
    """
    log_dir = Path(root) / EVENTS_DIR
    events: list[dict[str, Any]] = []
    if not log_dir.is_dir():
        return events
    for shard in sorted(log_dir.glob("events-*.jsonl")):
        try:
            text = shard.read_text(encoding="utf-8")
        except OSError:  # pragma: no cover - racing a writer's rename
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                # A live tail can catch a shard mid-write; the partial
                # final line completes by the next read.
                continue
    events.sort(
        key=lambda e: (
            float(e.get("t", 0.0)),
            int(e.get("pid", 0)),
            int(e.get("tid", 0)),
            int(e.get("seq", 0)),
        )
    )
    return events


def validate_events(events: list[dict[str, Any]]) -> list[str]:
    """Schema-check a merged event stream; returns problem strings.

    An empty list means the stream is valid: it opens with a
    ``run_started`` carrying a known schema version, every event is a
    known type carrying its required fields, and each writer's ``seq``
    numbers are strictly increasing.
    """
    problems: list[str] = []
    if not events:
        return ["empty event stream"]
    first = events[0]
    if first.get("type") != "run_started":
        problems.append(
            f"stream must open with run_started, got {first.get('type')!r}"
        )
    elif first.get("schema") not in KNOWN_SCHEMAS:
        problems.append(
            f"unknown schema {first.get('schema')!r}; known: {', '.join(KNOWN_SCHEMAS)}"
        )
    last_seq: dict[tuple[int, int], int] = {}
    for i, event in enumerate(events):
        type_ = event.get("type")
        if type_ not in REQUIRED_FIELDS:
            problems.append(f"event {i}: unknown type {type_!r}")
            continue
        for field in ("t", "pid", "tid", "seq"):
            if field not in event:
                problems.append(f"event {i} ({type_}): missing envelope field {field!r}")
        for field in REQUIRED_FIELDS[type_]:
            if field not in event:
                problems.append(f"event {i} ({type_}): missing field {field!r}")
        writer = (int(event.get("pid", 0)), int(event.get("tid", 0)))
        seq = int(event.get("seq", 0))
        if writer in last_seq and seq <= last_seq[writer]:
            problems.append(
                f"event {i} ({type_}): writer {writer} seq {seq} not increasing"
            )
        last_seq[writer] = seq
    return problems


def write_events(path: Path | str, events: list[dict[str, Any]]) -> None:
    """Write a merged stream as one JSONL file (report/test fixture aid)."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def read_events_file(path: Path | str) -> list[dict[str, Any]]:
    """Read a single merged JSONL file written by :func:`write_events`.

    A torn last line, cut mid-record or mid-character by a killed
    writer, is skipped, as :func:`read_events` skips one in a live
    shard; an undecodable line before it raises ``ValueError``.
    """
    lines = [line for line in Path(path).read_bytes().splitlines() if line.strip()]
    events = []
    for i, line in enumerate(lines):
        try:
            events.append(json.loads(line))
        except ValueError:  # JSONDecodeError or UnicodeDecodeError
            if i < len(lines) - 1:
                raise
    return events
