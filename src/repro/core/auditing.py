"""Runtime artifact-access auditing hooks.

The registry's read/write declarations are *claims* about what the
process code does; this module is the machinery that observes what it
actually does.  A run with ``ctx.audit`` binds a
:class:`~repro.core.recording.RunHandle` that audits its workspace
root; while it is bound, every :class:`~repro.core.artifacts.Workspace`
accessor returns an :class:`AuditedPath` whose file opens append one
JSON line per access to a per-(pid, thread) event log in
``<root>/.audit/``.  Pool workers learn that the run is audited only
from the handle their worker window binds, so the audit works
identically under the serial, thread and process backends and on every
start method.  The ``.audit/`` directory is an output, read post hoc by
``repro-lint --audit``; building a ``Workspace`` over it switches
nothing on.

Artifact byte counts for the metrics registry travel the same hooks
without the log: while a registry records (a run with ``ctx.metrics``),
the workspace hands out :class:`AuditedPath` objects too, and an access
outside an audited root is only counted, never written down.

Attribution: :func:`unit_scope` tags accesses with the pipeline process
(``P16``) and the concurrency unit (a station, a trace, a temp-folder
instance) that performed them.  Scopes do not override an enclosing
scope, so a driver-level scope (``P4`` around a whole stage) survives
into helper calls, while worker threads/processes — which start with an
empty context — get the fine-grained unit set by the loop body itself.

The cross-checking of these logs against the registry lives in
:mod:`repro.analysis.audit`; this module stays a leaf so every layer of
the pipeline can import it.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path, PosixPath, WindowsPath
from typing import Any, Callable, Iterator

from repro.core.recording import current

#: Directory (under the workspace root) holding an audited run's logs.
AUDIT_DIR = ".audit"

#: Open event-log writers keyed by (root, pid, thread id).
_writers: dict[tuple[str, int, int], Any] = {}
_writers_lock = threading.Lock()

#: The (process label, unit label, origin pid) performing the current
#: accesses.  The pid guards against fork inheritance: a process pool
#: forks its workers lazily at the first submit, which may happen while
#: the driver thread holds a scope, and the forked worker would carry
#: that scope forever.  A scope whose pid is not ours is stale.
_SCOPE: ContextVar[tuple[str, str, int] | None] = ContextVar(
    "repro_audit_scope", default=None
)


def _live_scope() -> tuple[str, str] | None:
    """The current scope, unless it was inherited across a fork."""
    scope = _SCOPE.get()
    if scope is None or scope[2] != os.getpid():
        return None
    return scope[0], scope[1]


def enable_auditing(root: Path | str) -> Path:
    """Create the log directory of an audited run under ``root``."""
    log_dir = Path(root) / AUDIT_DIR
    log_dir.mkdir(parents=True, exist_ok=True)
    return log_dir


def release_auditing(root: Path | str) -> None:
    """Close this process's logs for ``root``.

    The directory and its logs stay on disk, so the run can be
    cross-checked post hoc (``repro-lint --audit``).
    """
    key = str(Path(root))
    with _writers_lock:
        for wkey in [k for k in _writers if k[0] == key]:
            try:
                _writers.pop(wkey).close()
            except OSError:  # pragma: no cover - close failures are harmless
                pass


def _audited_root() -> str | None:
    """The bound run's root, when that run is audited."""
    handle = current()
    return handle.root if handle is not None and handle.audit else None


def is_active(root: Path | str) -> bool:
    """Whether accesses under ``root`` are recorded here and now."""
    return _audited_root() == str(root)


@contextmanager
def unit_scope(process: str, unit: str = "-") -> Iterator[None]:
    """Attribute accesses inside the block to (process, unit).

    A scope never overrides an enclosing one: the outermost attribution
    wins, so a driver's coarse scope is not clobbered by the helpers it
    calls, while fresh worker threads (empty context) take the loop
    body's fine-grained unit.  A scope inherited across a fork (lazily
    spawned process-pool workers copy the submitting thread's context)
    carries a foreign pid and counts as absent.
    """
    if _live_scope() is not None:
        yield
        return
    token = _SCOPE.set((process, unit, os.getpid()))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def current_scope() -> tuple[str, str] | None:
    """The active (process, unit) attribution, if any."""
    return _live_scope()


def process_unit(process: str, unit_arg: int | None = None) -> Callable:
    """Decorator form of :func:`unit_scope` for process/loop-body functions.

    ``unit_arg`` names the positional argument whose value identifies
    the concurrency unit (the station of ``separate_station``, the
    trace of ``response_for_trace``); without it the unit is ``"-"``,
    the process's own top-level scope.
    """

    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            unit = "-"
            if unit_arg is not None and len(args) > unit_arg:
                unit = str(args[unit_arg])
            with unit_scope(process, unit):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def _writer(root: str):
    key = (root, os.getpid(), threading.get_ident())
    writer = _writers.get(key)
    if writer is None:
        with _writers_lock:
            writer = _writers.get(key)
            if writer is None:
                log_dir = Path(root) / AUDIT_DIR
                name = f"events-{key[1]}-{key[2]}.jsonl"
                writer = open(log_dir / name, "a", buffering=1, encoding="utf-8")
                _writers[key] = writer
    return writer


#: :func:`repro.observability.metrics.record_io`, bound lazily — this
#: module is a leaf the whole pipeline imports, the observability
#: package is not.
_record_io = None


def _artifact_class(rel_path: str) -> str:
    """Metric label grouping artifacts by extension (``v1``, ``max``...)."""
    name = rel_path.rsplit("/", 1)[-1]
    if "." in name:
        return name.rsplit(".", 1)[-1] or "other"
    return "other"


def _metrics_io(rel_path: str, op: str, nbytes: int, count_access: bool = True) -> None:
    """Fold one access into the run's metrics registry, if one is live."""
    global _record_io
    if _record_io is None:
        from repro.observability.metrics import record_io

        _record_io = record_io
    _record_io(op, _artifact_class(rel_path), nbytes, count_access=count_access)


def record(root: Path | str, rel_path: str, op: str, nbytes: int | None = None) -> None:
    """Append one access event; under an unaudited ``root`` only count
    its bytes (a no-op unless a metrics registry records)."""
    key = str(root)
    if _audited_root() != key:
        _metrics_io(rel_path, op, nbytes or 0)
        return
    if rel_path.startswith(AUDIT_DIR):
        return
    scope = _live_scope()
    event = {
        "path": rel_path,
        "op": op,
        "process": scope[0] if scope else None,
        "unit": scope[1] if scope else None,
        "worker": f"{os.getpid()}:{threading.get_ident()}",
        "t": time.time(),
    }
    if nbytes is not None:
        event["bytes"] = nbytes
    _metrics_io(rel_path, op, nbytes or 0)
    try:
        _writer(key).write(json.dumps(event) + "\n")
    except OSError:  # pragma: no cover - a dead log never fails the run
        pass


#: File (inside the log directory) holding the executed barrier plan.
PLAN_FILE = "plan.json"


def record_plan(root: Path | str, plan: dict) -> None:
    """Store the barrier plan a run is about to execute (no-op unless
    ``root`` is audited).

    ``plan`` is ``{"policy": name, "regions": [{"label": ..., "tasks":
    [names]}]}``; the region index is the vector-clock epoch the
    happens-before cross-check (:mod:`repro.analysis.graphlint`) orders
    recorded accesses by.
    """
    if _audited_root() != str(root):
        return
    path = Path(root) / AUDIT_DIR / PLAN_FILE
    try:
        path.write_text(json.dumps(plan, indent=2), encoding="utf-8")
    except OSError:  # pragma: no cover - a dead log never fails the run
        pass


def load_plan(root: Path | str) -> dict | None:
    """The recorded barrier plan of a run, or ``None`` if none exists."""
    path = Path(root) / AUDIT_DIR / PLAN_FILE
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class AuditEvent:
    """One recorded file access."""

    path: str
    op: str  # "read" | "write" | "delete"
    process: str | None
    unit: str | None
    worker: str
    t: float


def iter_events(root: Path | str) -> Iterator[AuditEvent]:
    """Parse every event recorded for ``root`` (any worker, any order)."""
    log_dir = Path(root) / AUDIT_DIR
    for log in sorted(log_dir.glob("events-*.jsonl")):
        for line in log.read_text().splitlines():
            if not line.strip():
                continue
            data = json.loads(line)
            yield AuditEvent(
                path=data["path"],
                op=data["op"],
                process=data.get("process"),
                unit=data.get("unit"),
                worker=data.get("worker", "?"),
                t=float(data.get("t", 0.0)),
            )


_BASE = WindowsPath if os.name == "nt" else PosixPath


class AuditedPath(_BASE):
    """A path whose opens/unlinks are recorded against its workspace.

    Derived paths (``parent``, ``/``, ``glob`` results) stay audited:
    the owning root is the bound run handle's, matched by prefix, so no
    per-instance state needs to survive ``pathlib``'s internal
    reconstruction (or pickling into worker processes).  A path outside
    an audited root is a metrics-only path: its accesses are counted by
    artifact class and not logged.
    """

    __slots__ = ()

    def _relative(self) -> tuple[str, str] | None:
        """``(root, workspace-relative path)`` under the audited root."""
        root = _audited_root()
        text = str(self)
        if root is None or not text.startswith(root + os.sep):
            return None
        return root, text[len(root) + 1 :].replace(os.sep, "/")

    def _audit(self, op: str, nbytes: int | None = None) -> None:
        audited = self._relative()
        if audited is None:
            _metrics_io(self.name, op, nbytes or 0)
        else:
            record(*audited, op, nbytes=nbytes)

    def _count_written(self, nbytes: int) -> None:
        """Metrics-only byte count for a write whose access was already
        counted when :meth:`open` ran inside ``write_text``/
        ``write_bytes``."""
        audited = self._relative()
        if audited is None:
            _metrics_io(self.name, "write", nbytes, count_access=False)
        elif not audited[1].startswith(AUDIT_DIR):
            _metrics_io(audited[1], "write", nbytes, count_access=False)

    def _read_size(self) -> int | None:
        try:
            return self.stat().st_size
        except OSError:
            return None

    def open(self, mode: str = "r", buffering: int = -1, encoding: str | None = None,
             errors: str | None = None, newline: str | None = None):
        # Read sizes are known up front (the pipeline reads files
        # whole); write sizes arrive via the write_text/write_bytes
        # hooks once the payload exists.
        if "+" in mode:
            self._audit("read", nbytes=self._read_size())
            self._audit("write")
        elif any(flag in mode for flag in "wax"):
            self._audit("write")
        else:
            self._audit("read", nbytes=self._read_size())
        return super().open(mode, buffering, encoding, errors, newline)

    def write_text(self, data: str, encoding: str | None = None,
                   errors: str | None = None, newline: str | None = None) -> int:
        written = super().write_text(data, encoding, errors, newline)
        self._count_written(written)
        return written

    def write_bytes(self, data) -> int:
        written = super().write_bytes(data)
        self._count_written(written)
        return written

    def unlink(self, missing_ok: bool = False) -> None:
        self._audit("delete")
        super().unlink(missing_ok)

    def rename(self, target):
        self._audit("delete")
        result = super().rename(target)
        renamed = AuditedPath(target)
        renamed._audit("write")
        return result
