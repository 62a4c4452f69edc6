"""The span tracer.

A :class:`Tracer` records nested, attributed time spans from any thread
of the run.  Spans opened in the driver process nest automatically via
a per-thread span stack; work measured inside pool workers (possibly in
other *processes*, where the tracer object does not exist) is ingested
after the fact through :meth:`Tracer.record`, carrying an explicit
parent.

Clocks: in-process spans are placed with ``perf_counter`` offsets from
the tracer's start, so sibling and parent/child relations are exact to
microseconds.  Records ingested from other processes are placed with
wall-clock offsets (``time.time() - epoch``), which may drift from the
``perf_counter`` timeline by a small amount; their *durations* are
always local ``perf_counter`` deltas and therefore exact.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Attribute values we allow on spans (JSON-representable scalars).
AttrValue = "str | int | float | bool | None"

#: Sentinel: "parent is whatever span is open on this thread".
_CURRENT = object()


def worker_label() -> str:
    """Identity of the executing worker: ``pid:thread-name``."""
    return f"{os.getpid()}:{threading.current_thread().name}"


@dataclass
class Span:
    """One named, attributed interval of the run.

    ``start_s`` is an offset from the owning trace's epoch;
    ``duration_s`` is wall-clock elapsed.  ``kind`` encodes the level:
    ``run``, ``implementation``, ``stage``, ``process``, ``chunk``,
    ``task`` or ``batch``.
    """

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start_s: float
    duration_s: float
    worker: str
    attributes: dict[str, Any] = field(default_factory=dict)
    #: Summed duration of direct children, filled in by
    #: :meth:`Trace.annotate_self_times`.  An annotation, not part of
    #: the span's identity or its serialized form.
    child_duration_s: float = field(default=0.0, repr=False, compare=False)

    @property
    def end_s(self) -> float:
        """Offset of the span's end from the trace epoch."""
        return self.start_s + self.duration_s

    @property
    def self_time(self) -> float:
        """Duration minus the (annotated) duration of direct children.

        Meaningful after :meth:`Trace.annotate_self_times`; before
        annotation it equals ``duration_s``.  Clamped at zero: children
        measured in pool workers can overlap, so their sum may exceed
        the parent's wall-clock.
        """
        return max(0.0, self.duration_s - self.child_duration_s)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "worker": self.worker,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            span_id=int(data["span_id"]),
            parent_id=data["parent_id"],
            name=str(data["name"]),
            kind=str(data["kind"]),
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            worker=str(data["worker"]),
            attributes=dict(data.get("attributes") or {}),
        )


@dataclass
class Trace:
    """A finished collection of spans (one run, or a whole batch)."""

    epoch: float
    spans: list[Span] = field(default_factory=list)

    def by_kind(self, kind: str) -> list[Span]:
        """Spans of one kind, in start order."""
        return sorted((s for s in self.spans if s.kind == kind), key=lambda s: s.start_s)

    def roots(self) -> list[Span]:
        """Spans whose parent is absent from this trace."""
        ids = {s.span_id for s in self.spans}
        return sorted(
            (s for s in self.spans if s.parent_id is None or s.parent_id not in ids),
            key=lambda s: s.start_s,
        )

    def children(self, span: Span | int) -> list[Span]:
        """Direct children of a span, in start order."""
        parent_id = span.span_id if isinstance(span, Span) else span
        return sorted(
            (s for s in self.spans if s.parent_id == parent_id), key=lambda s: s.start_s
        )

    def annotate_self_times(self) -> "Trace":
        """Fill in every span's :attr:`Span.child_duration_s`.

        After this, ``span.self_time`` is the span's own overhead: its
        wall-clock minus the wall-clock spent inside direct children
        (chunk dispatch, result merging, artifact bookkeeping...).
        Returns ``self`` for chaining.
        """
        ids = {s.span_id for s in self.spans}
        summed: dict[int, float] = {}
        for span in self.spans:
            span.child_duration_s = 0.0
            if span.parent_id is not None and span.parent_id in ids:
                summed[span.parent_id] = summed.get(span.parent_id, 0.0) + span.duration_s
        for span in self.spans:
            span.child_duration_s = summed.get(span.span_id, 0.0)
        return self

    def stage_self_times(self) -> dict[str, float]:
        """Summed :attr:`Span.self_time` of the ``stage`` spans.

        The part of each stage that is executor overhead rather than
        measured process/chunk/task work.  Annotates first.
        """
        self.annotate_self_times()
        out: dict[str, float] = {}
        for span in self.by_kind("stage"):
            out[span.name] = out.get(span.name, 0.0) + span.self_time
        return out

    def stage_durations(self) -> dict[str, float]:
        """Summed duration of the ``stage`` spans, keyed by stage name.

        For a single run each stage appears once, so this is exactly the
        run's :attr:`~repro.core.runner.PipelineResult.stage_durations`;
        for a batch trace, repeats accumulate.
        """
        out: dict[str, float] = {}
        for span in self.by_kind("stage"):
            out[span.name] = out.get(span.name, 0.0) + span.duration_s
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {"epoch": self.epoch, "spans": [s.to_dict() for s in self.spans]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            epoch=float(data["epoch"]),
            spans=[Span.from_dict(s) for s in data.get("spans") or []],
        )


class Tracer:
    """Collects spans from every layer of a run.

    Thread-safe.  Pickling a tracer (the process backend pickles the
    :class:`~repro.core.context.RunContext` into its workers) yields a
    *disabled* tracer: workers measure their own spans and hand the
    records back through the runtime, they never write here directly.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.epoch = time.time()
        self._perf0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        #: Live per-thread span stacks, keyed by thread id.  The values
        #: ARE the thread-local stacks (same list objects), so the
        #: sampling profiler can read any thread's open spans without
        #: touching its thread-local storage.
        self._thread_stacks: dict[int, list[Span]] = {}

    # -- pickling: cross the process boundary as a no-op ----------------

    def __getstate__(self) -> dict[str, Any]:
        return {"enabled": False, "epoch": self.epoch}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(enabled=False)
        self.epoch = state.get("epoch", self.epoch)

    # -- internals -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._thread_stacks[threading.get_ident()] = stack
        return stack

    def open_spans(self) -> dict[int, list[Span]]:
        """Snapshot of every thread's open span stack, outermost first.

        Read by the sampling profiler to attribute a sampled thread's
        stack to the spans open on it.  Thread ids may be reused by the
        OS after a thread exits; a dead thread's entry lingers with an
        empty stack, which attributes to nothing.
        """
        with self._lock:
            return {tid: list(stack) for tid, stack in self._thread_stacks.items() if stack}

    def _resolve_parent(self, parent: Any) -> int | None:
        if parent is _CURRENT:
            current = self.current()
            return current.span_id if current is not None else None
        if parent is None:
            return None
        if isinstance(parent, Span):
            return parent.span_id
        return int(parent)

    def now(self) -> float:
        """Current offset from the trace epoch (monotonic)."""
        return time.perf_counter() - self._perf0

    def current(self) -> Span | None:
        """The innermost span open on *this* thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span creation ---------------------------------------------------

    @contextmanager
    def span(
        self, name: str, *, kind: str = "span", parent: Any = _CURRENT, **attributes: Any
    ) -> Iterator[Span | None]:
        """Open a span around the ``with`` body.

        The parent defaults to the span currently open on this thread;
        pass ``parent=`` (a :class:`Span`, an id, or ``None`` for a
        root) when the lexical nesting is not the logical one — e.g.
        from a pool worker thread.  Yields the (still-open) span; its
        ``duration_s`` is final once the block exits.
        """
        if not self.enabled:
            yield None
            return
        with self._lock:
            span_id = next(self._ids)
        sp = Span(
            span_id=span_id,
            parent_id=self._resolve_parent(parent),
            name=name,
            kind=kind,
            start_s=self.now(),
            duration_s=0.0,
            worker=worker_label(),
            attributes=dict(attributes),
        )
        stack = self._stack()
        stack.append(sp)
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.duration_s = time.perf_counter() - t0
            stack.pop()
            with self._lock:
                self._spans.append(sp)

    def event(self, name: str, *, kind: str = "event", **attributes: Any) -> Span | None:
        """Record a zero-duration point-in-time annotation.

        Used by the resilience runtime to mark quarantine decisions in
        the trace; the parent is whatever span is open on this thread.
        """
        if not self.enabled:
            return None
        return self.record(
            name,
            kind=kind,
            start_s=self.now(),
            duration_s=0.0,
            worker=worker_label(),
            parent=_CURRENT,
            **attributes,
        )

    def record(
        self,
        name: str,
        *,
        kind: str,
        start_s: float,
        duration_s: float,
        worker: str,
        parent: Any = None,
        **attributes: Any,
    ) -> Span | None:
        """Ingest an externally measured span (e.g. from a pool worker)."""
        if not self.enabled:
            return None
        with self._lock:
            span_id = next(self._ids)
        sp = Span(
            span_id=span_id,
            parent_id=self._resolve_parent(parent) if parent is not None else None,
            name=name,
            kind=kind,
            start_s=start_s,
            duration_s=duration_s,
            worker=worker,
            attributes=dict(attributes),
        )
        with self._lock:
            self._spans.append(sp)
        return sp

    # -- harvesting ------------------------------------------------------

    def trace(self) -> Trace:
        """Snapshot of every finished span so far."""
        with self._lock:
            return Trace(epoch=self.epoch, spans=list(self._spans))

    def subtree(self, root: Span) -> Trace:
        """The trace restricted to ``root`` and its descendants."""
        with self._lock:
            spans = list(self._spans)
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        keep: list[Span] = []
        frontier = [root]
        seen = {root.span_id}
        while frontier:
            span = frontier.pop()
            keep.append(span)
            for child in children.get(span.span_id, ()):
                if child.span_id not in seen:
                    seen.add(child.span_id)
                    frontier.append(child)
        keep.sort(key=lambda s: (s.start_s, s.span_id))
        return Trace(epoch=self.epoch, spans=keep)


@contextmanager
def maybe_span(
    tracer: Tracer | None,
    name: str,
    *,
    kind: str = "span",
    parent: Any = _CURRENT,
    **attributes: Any,
) -> Iterator[Span | None]:
    """:meth:`Tracer.span` that tolerates ``tracer`` being ``None``."""
    if tracer is None or not tracer.enabled:
        yield None
        return
    with tracer.span(name, kind=kind, parent=parent, **attributes) as sp:
        yield sp
