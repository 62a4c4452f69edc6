"""Span recording for the benchmark's traced run.

The traced run wraps the public functions of each layer of the
``repro`` package and records one span per call: name, layer, start,
end and parent.  Spans stay in memory, one list per thread (a *lane*).
Process-backend pool workers inherit the wrappers through fork; each
writes its lanes to ``<spool>/<pid>-<ns>.json`` when it exits, and the
driver gathers every lane at the end of a pass
(:meth:`SpanRecorder.end_pass`).

Wrappers are installed where each name is *looked up*, not only where
it is defined: every ``repro`` module attribute, module-level registry
dict (``TOOLS``) and ``PROCESSES`` entry that refers to a wrapped
function is replaced, because modules bind names at import time
(``from repro.formats.v2 import read_v2``).  :meth:`Instrumentation.uninstall`
puts every original back, so untraced passes run the program untouched.

Layers are this repository's modules:

=================  ========================================================
``formats``        ``repro.formats`` ``read_*`` / ``write_*``
``dsp``            public functions of ``repro.dsp``
``spectra``        ``repro.spectra`` response / Fourier / inflection
``plotting``       ``repro.plotting.seismo`` plot functions
``processes``      public functions of ``repro.core.processes`` and
                   ``repro.core.tools`` (process bodies, legacy tools)
``engine``         ``Engine.execute``, policy ``plan``, region validation
                   and each barrier region (``stage_scope``)
``parallel``       ``parallel_for``, ``shared_executor``, ``TaskGroup``
``tempfolders``    ``run_staged_instance``
``observability``  event emission, metrics recording and audit hooks
``bulletin``       ``verify_inventory``, ``summarize_event_run``,
                   ``Bulletin.render``
=================  ========================================================
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

#: Field positions of one span record ``[name, layer, start, end, parent, attrs]``.
NAME, LAYER, START, END, PARENT, ATTRS = range(6)

#: Driver spans that only wait for pool workers while a worker works.
WAITING = {("parallel", "parallel_for"), ("parallel", "taskgroup")}


class Lane:
    """Spans and counts recorded by one thread of one process."""

    __slots__ = ("pid", "tid", "spans", "stack", "counts")

    def __init__(self, pid: int, tid: int) -> None:
        self.pid = pid
        self.tid = tid
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def to_dict(self) -> dict:
        return {"pid": self.pid, "tid": self.tid, "spans": self.spans, "counts": self.counts}

    @classmethod
    def from_dict(cls, data: dict) -> "Lane":
        lane = cls(int(data["pid"]), int(data["tid"]))
        lane.spans = data["spans"]
        lane.counts = data["counts"]
        return lane


class SpanRecorder:
    """In-memory span store shared by every wrapper of one traced run.

    ``active`` gates recording; wrappers call straight through while it
    is false.  Worker processes forked while it is true record into
    their own lanes and spool them to ``spool_dir`` when they exit.
    """

    def __init__(self, spool_dir: Path | str) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.active = False
        self.driver_pid = os.getpid()
        #: Barrier-region label -> strategy, from the executed plans.
        self.strategies: dict[str, str] = {}
        self._lanes: list[Lane] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spooling_pid: int | None = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A lock held by another thread at fork time would stay held in
        # the child; the parent's lanes are not the child's.
        self._lock = threading.Lock()
        self._lanes = []

    def _lane(self) -> Lane:
        lane = getattr(self._local, "lane", None)
        pid = os.getpid()
        if lane is not None and lane.pid == pid:
            return lane
        lane = Lane(pid, threading.get_ident())
        with self._lock:
            self._lanes.append(lane)
            if pid != self.driver_pid and self._spooling_pid != pid:
                # Registered lazily: multiprocessing clears the finalizer
                # registry right after it forks a worker.
                self._spooling_pid = pid
                mp_util.Finalize(None, self._spool, exitpriority=10)
        self._local.lane = lane
        return lane

    def _spool(self) -> None:
        """Write this worker's lanes for the driver (runs at worker exit)."""
        with self._lock:
            lanes = [lane.to_dict() for lane in self._lanes if lane.spans or lane.counts]
        path = self.spool_dir / f"{os.getpid()}-{time.time_ns()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(lanes))
        os.replace(tmp, path)

    def open(self, layer: str, name: str, attrs: dict | None = None) -> tuple[Lane, int]:
        """Start a span on the calling thread; returns the close token."""
        lane = self._lane()
        spans = lane.spans
        parent = lane.stack[-1] if lane.stack else -1
        spans.append([name, layer, time.perf_counter(), 0.0, parent, attrs])
        index = len(spans) - 1
        lane.stack.append(index)
        return lane, index

    def close(self, token: tuple[Lane, int]) -> None:
        """End the span ``token`` names."""
        lane, index = token
        lane.spans[index][END] = time.perf_counter()
        stack = lane.stack
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to a per-thread counter (no span)."""
        counts = self._lane().counts
        counts[key] = counts.get(key, 0) + n

    def end_pass(self) -> list[Lane]:
        """Every lane recorded since the previous call, driver and workers.

        Call between passes, when no span is open and every pool of the
        pass has shut down (so each worker has spooled its lanes).
        """
        taken: list[Lane] = []
        with self._lock:
            for lane in self._lanes:
                if not (lane.spans or lane.counts):
                    continue
                snapshot = Lane(lane.pid, lane.tid)
                snapshot.spans, snapshot.counts = lane.spans, lane.counts
                lane.spans, lane.counts, lane.stack = [], {}, []
                taken.append(snapshot)
        for path in sorted(self.spool_dir.glob("*.json")):
            taken.extend(Lane.from_dict(d) for d in json.loads(path.read_text()))
            path.unlink()
        return taken


# -- measuring helpers -------------------------------------------------------


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _points(args: tuple, kwargs: dict) -> dict:
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray) and value.ndim:
            return {"points": int(value.shape[0])}
    return {"points": 0}


# -- wrapper factories ---------------------------------------------------------


def _spanning(rec: SpanRecorder, fn, layer: str, name: str, pre=None, post=None):
    """Wrap ``fn`` in a span; ``pre(args, kwargs)`` / ``post(args, kwargs,
    result)`` return span attributes and run outside the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        attrs = pre(args, kwargs) if pre is not None else None
        token = rec.open(layer, name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(token)
        if post is not None:
            extra = post(args, kwargs, result)
            if extra:
                token[0].spans[token[1]][ATTRS] = {**(attrs or {}), **extra}
        return result

    return wrapper


class _SpanCM:
    """A context manager run inside a span (enter to exit)."""

    def __init__(self, rec: SpanRecorder, cm, layer: str, name: str, attrs: dict | None):
        self.rec, self.cm, self.layer, self.name, self.attrs = rec, cm, layer, name, attrs
        self.token = None

    def __enter__(self):
        if self.rec.active:
            self.token = self.rec.open(self.layer, self.name, self.attrs)
        try:
            return self.cm.__enter__()
        except BaseException:
            if self.token is not None:
                self.rec.close(self.token)
            raise

    def __exit__(self, *exc):
        try:
            return self.cm.__exit__(*exc)
        finally:
            if self.token is not None:
                self.rec.close(self.token)


class _PoolCM:
    """``shared_executor``: pool creation and shutdown each get a span."""

    def __init__(self, rec: SpanRecorder, cm) -> None:
        self.rec, self.cm = rec, cm

    def _timed(self, call, *args):
        if not self.rec.active:
            return call(*args)
        token = self.rec.open("parallel", "pool")
        try:
            return call(*args)
        finally:
            self.rec.close(token)

    def __enter__(self):
        return self._timed(self.cm.__enter__)

    def __exit__(self, *exc):
        return self._timed(self.cm.__exit__, *exc)


def _hook(rec: SpanRecorder, fn, name: str, state_of, span: bool = True):
    """Wrap a telemetry hook.  ``state_of(args, kwargs, result)`` says
    whether the hook's telemetry was ``live``, ``dormant`` (switched
    off) or ``background`` (the time-driven heartbeat)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        token = rec.open("observability", name) if span else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if token is not None:
                rec.close(token)
        state = state_of(args, kwargs, result)
        if token is not None:
            token[0].spans[token[1]][ATTRS] = {"state": state}
        else:
            rec.count(f"hook.{state}")
        return result

    return wrapper


# -- the instrumentation plan --------------------------------------------------


def _public_functions(module) -> list[tuple[str, object]]:
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def submodules(package_name: str) -> list:
    """Every module of a package, imported."""
    package = importlib.import_module(package_name)
    return [
        importlib.import_module(f"{package_name}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Instrumentation:
    """Every wrapper of the traced run, installable and removable."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        #: id(original) -> (original, wrapper) for module-level functions.
        self._functions: dict[int, tuple[object, object]] = {}
        #: (class, attribute, original, wrapper) for methods.
        self._methods: list[tuple[type, str, object, object]] = []
        self._undo: list[tuple[object, object, object, str]] = []
        self._plan()

    def _add(self, fn, wrapper) -> None:
        self._functions[id(fn)] = (fn, wrapper)

    def _add_method(self, cls: type, attr: str, wrapper_factory) -> None:
        original = cls.__dict__[attr]
        self._methods.append((cls, attr, original, wrapper_factory(original)))

    def _plan(self) -> None:
        rec = self.rec
        for module in submodules("repro.formats"):
            for name, fn in _public_functions(module):
                if name.startswith("read_"):
                    self._add(fn, _spanning(
                        rec, fn, "formats", "read",
                        pre=lambda a, k: {"bytes": _size(_arg(a, k, 0, "path"))},
                    ))
                elif name.startswith("write_"):
                    self._add(fn, _spanning(
                        rec, fn, "formats", "write",
                        post=lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
                    ))
        for module in submodules("repro.dsp"):
            for _name, fn in _public_functions(module):
                self._add(fn, _spanning(rec, fn, "dsp", "kernel", pre=_points))

        from repro.spectra import fourier, inflection, response

        def steps(args, kwargs):
            acc = np.asarray(_arg(args, kwargs, 0, "acc"))
            config = _arg(args, kwargs, 2, "config") or response.ResponseSpectrumConfig()
            return {"steps": int(acc.shape[0]) * int(config.combos)}

        self._add(response.response_spectrum, _spanning(
            rec, response.response_spectrum, "spectra", "response", pre=steps,
        ))
        for module, kind in ((fourier, "fourier"), (inflection, "inflection")):
            for _name, fn in _public_functions(module):
                self._add(fn, _spanning(rec, fn, "spectra", kind))

        from repro.plotting import seismo

        for _name, fn in _public_functions(seismo):
            self._add(fn, _spanning(rec, fn, "plotting", "plot"))

        from repro.core import tools

        for module in [*submodules("repro.core.processes"), tools]:
            for name, fn in _public_functions(module):
                self._add(fn, _spanning(rec, fn, "processes", name))

        from repro.core import tempfolders

        def staged_bytes(args, kwargs):
            work = Path(_arg(args, kwargs, 0, "workspace_root")) / "work"
            instance = _arg(args, kwargs, 1, "instance")
            return {"bytes": sum(_size(work / name) for name in instance.inputs)}

        self._add(tempfolders.run_staged_instance, _spanning(
            rec, tempfolders.run_staged_instance, "tempfolders", "staged_instance",
            pre=staged_bytes,
        ))
        self._plan_engine()
        self._plan_parallel()
        self._plan_observability()

        from repro.core import batch, verify

        self._add(verify.verify_inventory, _spanning(
            rec, verify.verify_inventory, "bulletin", "verify",
        ))
        self._add(batch.summarize_event_run, _spanning(
            rec, batch.summarize_event_run, "bulletin", "summarize",
        ))
        self._add_method(batch.Bulletin, "render",
                         lambda fn: _spanning(rec, fn, "bulletin", "render"))

    def _plan_engine(self) -> None:
        rec = self.rec
        from repro.engine import executor, graph, policy
        from repro.observability import events

        self._add_method(executor.Engine, "execute",
                         lambda fn: _spanning(rec, fn, "engine", "execute"))

        def remember(args, kwargs, result):
            _graph, regions = result
            for region in regions:
                rec.strategies[region.label] = region.strategy
            return None

        for cls in vars(policy).values():
            if isinstance(cls, type) and issubclass(cls, policy.SchedulingPolicy) \
                    and "plan" in cls.__dict__:
                self._add_method(cls, "plan", lambda fn: _spanning(
                    rec, fn, "engine", "plan", post=remember,
                ))
        self._add_method(graph.TaskGraph, "validate_regions",
                         lambda fn: _spanning(rec, fn, "engine", "plan"))

        stage_scope = events.stage_scope

        @functools.wraps(stage_scope)
        def stage_wrapper(stage):
            return _SpanCM(rec, stage_scope(stage), "engine", "stage", {"stage": stage})

        self._add(stage_scope, stage_wrapper)

    def _plan_parallel(self) -> None:
        rec = self.rec
        from repro.parallel import omp
        from repro.parallel.backend import resolve_workers
        from repro.parallel.chunks import Schedule, chunk_indices

        parallel_for = omp.parallel_for

        @functools.wraps(parallel_for)
        def parallel_for_wrapper(func, items, *args, **kwargs):
            if not rec.active:
                return parallel_for(func, items, *args, **kwargs)
            items = list(items)
            chunks = len(chunk_indices(
                len(items), resolve_workers(kwargs.get("num_workers")),
                kwargs.get("schedule", Schedule.DYNAMIC), kwargs.get("chunk_size"),
            )) if items else 0
            token = rec.open("parallel", "parallel_for", {"chunks": chunks})
            try:
                return parallel_for(func, items, *args, **kwargs)
            finally:
                rec.close(token)

        self._add(parallel_for, parallel_for_wrapper)

        shared_executor = omp.shared_executor

        @functools.wraps(shared_executor)
        def shared_executor_wrapper(*args, **kwargs):
            return _PoolCM(rec, shared_executor(*args, **kwargs))

        self._add(shared_executor, shared_executor_wrapper)

        def enter(fn):
            @functools.wraps(fn)
            def __enter__(self):
                if not rec.active:
                    return fn(self)
                self._perfbench_block = rec.open("parallel", "taskgroup")
                token = rec.open("parallel", "pool")
                try:
                    return fn(self)
                finally:
                    rec.close(token)
            return __enter__

        def exit_(fn):
            @functools.wraps(fn)
            def __exit__(self, *exc):
                block = self.__dict__.pop("_perfbench_block", None)
                try:
                    return fn(self, *exc)
                finally:
                    if block is not None:
                        rec.close(block)
            return __exit__

        def task(fn):
            @functools.wraps(fn)
            def task_wrapper(self, *args, **kwargs):
                if rec.active:
                    rec.count("parallel.tasks")
                return fn(self, *args, **kwargs)
            return task_wrapper

        self._add_method(omp.TaskGroup, "__enter__", enter)
        self._add_method(omp.TaskGroup, "__exit__", exit_)
        self._add_method(omp.TaskGroup, "task", task)

    def _plan_observability(self) -> None:
        rec = self.rec
        from repro.core import auditing
        from repro.observability import events, metrics, profiling, tracer

        events_active = events.is_active
        audit_active = auditing.is_active
        recording = metrics.recording_registry
        heartbeat = events.Heartbeat

        def state(flag: bool) -> str:
            return "live" if flag else "dormant"

        def emit_state(a, k, r):
            if isinstance(threading.current_thread(), heartbeat):
                return "background"
            return state(events_active(_arg(a, k, 0, "root")))

        def span_state(a, k, r):
            tr = _arg(a, k, 0, "tracer")
            return state(tr is not None and tr.enabled)

        hooks = [
            (events.emit, "emit", emit_state, True),
            (events.emit_channel, "emit_channel",
             lambda a, k, r: state(_arg(a, k, 0, "chan") is not None), True),
            (events.channel, "channel", lambda a, k, r: state(r is not None), False),
            (events.is_active, "events_active", lambda a, k, r: state(bool(r)), False),
            (auditing.record, "audit",
             lambda a, k, r: state(audit_active(_arg(a, k, 0, "root"))), True),
            (auditing.is_active, "audit_active", lambda a, k, r: state(bool(r)), False),
            (tracer.maybe_span, "maybe_span", span_state, False),
            (profiling.installed_profiler, "profiler",
             lambda a, k, r: state(r is not None), False),
        ]
        for fn in (metrics.record_io, metrics.record_points, metrics.record_process):
            hooks.append((fn, "metrics", lambda a, k, r: state(recording() is not None), True))
        for fn, name, state_of, span in hooks:
            self._add(fn, _hook(rec, fn, name, state_of, span=span))

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Replace every reference to a wrapped function or method."""
        if self._undo:
            return
        originals = {key: pair[0] for key, pair in self._functions.items()}

        def wrapper_of(value):
            pair = self._functions.get(id(value))
            if pair is not None and originals[id(value)] is value:
                return pair[1]
            return None

        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for module in modules:
            for key, value in list(vars(module).items()):
                new = wrapper_of(value)
                if new is not None:
                    setattr(module, key, new)
                    self._undo.append((module, key, value, "attr"))
                elif isinstance(value, dict):
                    self._swap_registry(value, wrapper_of)
        for cls, attr, _original, wrapper in self._methods:
            setattr(cls, attr, wrapper)

    def _swap_registry(self, registry: dict, wrapper_of) -> None:
        for key, value in list(registry.items()):
            new = wrapper_of(value)
            if new is not None:
                registry[key] = new
                self._undo.append((registry, key, value, "item"))
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                run = getattr(value, "run", None)
                new = wrapper_of(run)
                if new is not None:
                    object.__setattr__(value, "run", new)
                    self._undo.append((value, "run", run, "field"))

    def uninstall(self) -> None:
        """Put every original back."""
        for container, key, original, how in reversed(self._undo):
            if how == "attr":
                setattr(container, key, original)
            elif how == "item":
                container[key] = original
            else:
                object.__setattr__(container, key, original)
        self._undo = []
        for cls, attr, original, _wrapper in self._methods:
            setattr(cls, attr, original)
