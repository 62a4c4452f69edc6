"""OpenMP-shaped primitives over real Python backends.

``parallel_for`` is the library's ``#pragma omp parallel for``: it maps
a function over an index range, preserving result order, with the
schedule policies of :mod:`repro.parallel.chunks`.  ``TaskGroup`` is
``parallel`` + ``single`` + ``task``/``taskwait``: tasks submitted
inside the ``with`` block run concurrently and the block exit is the
taskwait barrier.

Backend notes (GIL): the ``thread`` backend overlaps bodies that
release the GIL (file I/O, NumPy kernels, stage IX's compiled filter);
the ``process`` backend overlaps pure-Python stages too and requires
picklable functions and arguments — the pipeline's process bodies are
module-level functions operating on paths, which pickle fine.

Every chunk and every task, on every backend, runs inside one worker
window (:func:`_windowed`): the driver hands it a picklable
:class:`_Window`, the body runs wherever the backend puts it (driver
thread, pool thread or pool process), and the window returns the
body's value with an *envelope* — the body's self-measured timing plus
its drained metrics and profile shards — which the driver ingests
through one fold (:class:`_Fold`).

The window also carries the driver's run handle
(:mod:`repro.core.recording`) and binds it around the body.  That is
the only way a worker learns what the run records — the access audit,
the event log, the fault plan — so a pool thread or pool process sees
exactly the driver's handle on every start method.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_EXCEPTION,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.core.recording import RunHandle, bound, current
from repro.observability.events import channel, emit_channel
from repro.observability.metrics import (
    MetricsRegistry,
    begin_worker_window,
    drain_worker_shard,
)
from repro.observability.profiling import (
    begin_worker_profile,
    drain_worker_profile,
    installed_profiler,
    merge_profile_shard,
)
from repro.observability.tracer import Span, Tracer, worker_label
from repro.parallel.backend import Backend, resolve_workers
from repro.parallel.chunks import Schedule, chunk_indices
from repro.parallel.native import set_blas_threads, single_threaded_blas


@contextmanager
def _pool(backend: Backend, workers: int) -> Iterator[Executor]:
    """The one place a worker pool is built, for either pool backend.

    The pool is the parallelism, so BLAS runs single-threaded while it
    is open.  Process workers fork lazily, at submit time, from the
    pinned caller and inherit the pin (OpenBLAS's setter, called in a
    forked child, would start spinning threads); the initializer pins
    spawn and forkserver workers, which start at the host default.
    """
    with single_threaded_blas():
        if backend is Backend.THREAD:
            pool: Executor = ThreadPoolExecutor(max_workers=workers)
        else:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=set_blas_threads, initargs=(1,)
            )
        try:
            yield pool
        finally:
            pool.shutdown(wait=True)


@contextmanager
def shared_executor(
    backend: Backend | str, num_workers: int | None = None
) -> Iterator[Executor | None]:
    """A pool reusable across many :func:`parallel_for` calls and
    :class:`TaskGroup` regions.

    Creating a pool per loop costs milliseconds (and a fork per worker
    for the process backend); a staged pipeline runs ten-plus loops and
    task regions, so the engine opens one pool per run and passes it
    through the ``executor`` parameter.  Yields ``None`` for the serial
    backend (callers pass it straight through).
    """
    backend = Backend.coerce(backend)
    workers = resolve_workers(num_workers)
    if backend is Backend.SERIAL or workers == 1:
        yield None
        return
    with _pool(backend, workers) as pool:
        yield pool


# -- the worker window -----------------------------------------------------


class _Window(NamedTuple):
    """What one loop or task hands to every body it runs (picklable).

    ``kind`` is ``"chunk"`` or ``"task"``; ``epoch`` anchors span start
    times to the tracer's clock; ``collect`` opens a metrics shard;
    ``profile`` is the ``(hz, labels)`` profile channel and ``events``
    the :func:`~repro.observability.events.channel` tuple, each
    ``None`` when that telemetry is off; ``handle`` is the driver's run
    handle (``None`` outside a run).
    """

    kind: str
    epoch: float
    collect: bool
    profile: tuple | None
    events: tuple | None
    handle: RunHandle | None


def _open_window(
    kind: str, name: str, backend: Backend, tracer: Tracer | None,
    metrics: MetricsRegistry | None,
) -> _Window:
    """Build the window for one loop or task on the driver thread.

    The profile labels — the driver thread's span attribution now, plus
    the span name and backend — are computed once here, so samples
    taken in pool processes come home fully attributed.  The events
    channel carries the enclosing stage label the same way.  Both are
    one pid-guarded read when their telemetry is off.
    """
    profile = None
    profiler = installed_profiler()
    if profiler is not None:
        labels = profiler.labels_here()
        labels["span"] = name
        labels["backend"] = backend.value
        profile = (profiler.hz, labels)
    epoch = tracer.epoch if tracer is not None else time.time()
    return _Window(kind, epoch, metrics is not None, profile, channel(name), current())


def _windowed(
    window: _Window, body: Callable[..., Any], /, *args: Any, **kwargs: Any
) -> tuple[Any, dict[str, Any]]:
    """Run ``body(*args, **kwargs)`` inside ``window``; ``(value, envelope)``.

    Runs wherever the body runs — possibly in another process, where
    the driver's tracer, registry and profiler do not exist — so the
    body measures itself and the measurement travels back with its
    value.  The envelope holds ``start_s``, ``duration_s`` and
    ``worker``, plus the drained ``"metrics"`` and ``"profile"`` shards
    when non-empty.  The window emits ``unit_finished`` (chunks) or
    ``task_finished`` (tasks) straight into the event log, live even on
    the process backend.  A body that raises propagates unchanged,
    after both shards are drained.
    """
    with bound(window.handle):
        token = begin_worker_profile(*window.profile) if window.profile is not None else None
        if window.collect:
            begin_worker_window()
        start_wall = time.time()
        t0 = time.perf_counter()
        shard = profile = None
        try:
            value = body(*args, **kwargs)
        finally:
            if window.collect:
                shard = drain_worker_shard()
            if token is not None:
                profile = drain_worker_profile(token)
        envelope = {
            "start_s": start_wall - window.epoch,
            "duration_s": time.perf_counter() - t0,
            "worker": worker_label(),
        }
        if shard:
            envelope["metrics"] = shard
        if profile:
            envelope["profile"] = profile
        if window.events is not None:
            if window.kind == "chunk":
                emit_channel(window.events, "unit_finished", count=_executed(value),
                             duration_s=envelope["duration_s"], worker=envelope["worker"])
            else:
                emit_channel(window.events, "task_finished",
                             duration_s=envelope["duration_s"], worker=envelope["worker"])
        return value, envelope


@dataclass
class _Fold:
    """Driver-side ingestion of envelopes, one per loop or task group.

    ``tracer`` is ``None`` when tracing is off; ``parent`` is the span
    open on the driver when the loop or group began.
    """

    kind: str
    backend: str
    tracer: Tracer | None
    registry: MetricsRegistry | None
    schedule: str | None = None
    parent: Span | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.tracer is not None:
            self.parent = self.tracer.current()

    def live_span(self, name: str, **attributes: Any):
        """The span an in-process body runs under (spans it opens nest)."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, kind=self.kind, parent=self.parent, **attributes)

    def __call__(
        self, name: str, envelope: dict[str, Any], *, traced: bool = True,
        executed: int = 1, **attributes: Any,
    ) -> None:
        """Ingest one envelope: span record (unless the span was recorded
        live), metrics and profile shards, and the per-unit counters."""
        merge_profile_shard(envelope.pop("profile", None))
        shard = envelope.pop("metrics", None)
        if traced and self.tracer is not None:
            self.tracer.record(name, kind=self.kind, parent=self.parent,
                               **attributes, **envelope)
        registry = self.registry
        if registry is None:
            return
        duration = envelope["duration_s"]
        if self.kind == "chunk":
            registry.counter(
                "repro_parallel_chunks_total",
                help="Chunks scheduled by parallel_for, per loop span.",
                span=name, backend=self.backend, schedule=self.schedule,
            ).inc(1)
            registry.counter(
                "repro_parallel_items_total",
                help="Loop items executed by parallel_for, per loop span.",
                span=name,
            ).inc(executed)
            registry.histogram(
                "repro_parallel_chunk_duration_seconds",
                help="Wall-clock per scheduled chunk.",
                span=name,
            ).observe(duration)
        else:
            registry.counter(
                "repro_parallel_tasks_total",
                help="Tasks run through TaskGroup.",
                backend=self.backend,
            ).inc(1)
            registry.histogram(
                "repro_parallel_task_duration_seconds",
                help="Wall-clock per TaskGroup task.",
                backend=self.backend,
            ).observe(duration)
        registry.counter(
            "repro_parallel_worker_busy_seconds_total",
            help="Summed chunk/task wall-clock per worker.",
            worker=envelope["worker"],
        ).inc(duration)
        if shard:
            registry.merge(shard)


# -- loops -----------------------------------------------------------------


def _executed(result: tuple[list[Any], int | None, Any]) -> int:
    """Items a chunk body executed.  A failing item counts: the monitor's
    progress matches the work actually attempted, and the retry events
    of the resilience runtime account for the resubmission."""
    values, failed, _ = result
    return len(values) + (0 if failed is None else 1)


def _run_chunk(
    func: Callable[[Any], Any], items: Sequence[Any], indices: range,
    attempt: int = 1, retryable: tuple = (), scope: Callable[[int], Any] | None = None,
) -> tuple[list[Any], int | None, BaseException | None]:
    """Apply ``func`` to one chunk, stopping at the first *retryable* failure.

    Returns ``(values, failed_offset, error)``: on a retryable failure
    ``values`` holds the results up to the failing item,
    ``failed_offset`` is its position within ``indices``, and the
    chunk's unstarted tail never ran (the driver resubmits both).
    ``attempt`` is uniform across the chunk — initial chunks run at 1,
    resubmissions are single-item chunks at the bumped number.  Other
    exceptions propagate; with no ``retryable`` classes every exception
    does, which is a plain loop.
    """
    values: list[Any] = []
    for offset, i in enumerate(indices):
        try:
            if scope is None:
                values.append(func(items[i]))
            else:
                with scope(attempt):
                    values.append(func(items[i]))
        except retryable as exc:
            return values, offset, exc
    return values, None, None


@dataclass
class Isolation:
    """Chunk-isolation policy for :func:`parallel_for`.

    Without isolation, one failing item aborts its whole chunk (and the
    loop).  With it, exceptions of the ``retryable`` classes stop only
    the failing item: the driver resubmits it (up to ``max_attempts``,
    sleeping ``delay`` between tries) and runs the chunk's unstarted
    tail as a fresh chunk, so one poisoned item never takes its chunk
    mates down with it.  An item that exhausts its attempts yields
    ``None`` in the results and an ``on_exhausted`` report in
    :attr:`reports`.

    Only ``retryable`` and ``attempt_scope`` cross into workers (both
    must be picklable for the process backend: exception classes and a
    module-level context-manager factory).  The callbacks run on the
    driver thread, so they may close over unpicklable state.
    """

    max_attempts: int = 3
    retryable: tuple = ()
    describe: Callable[[Any], str] = str
    #: Context manager factory wrapping each item body with its 1-based
    #: attempt number (e.g. ``repro.resilience.faults.attempt_scope``).
    attempt_scope: Callable[[int], Any] | None = None
    #: Seconds to sleep before retrying ``record`` after attempt N.
    delay: Callable[[str, int], float] | None = None
    #: Called once per caught retryable failure (before retry/exhaust).
    on_caught: Callable[[str, int], None] | None = None
    #: Called when attempt N's failure leads to a resubmission.
    on_retry: Callable[[str, int], None] | None = None
    #: Builds the report appended to :attr:`reports` on give-up.
    on_exhausted: Callable[[str, BaseException, int], Any] | None = None
    #: Reports of items that exhausted their attempts (driver-side).
    reports: list = field(default_factory=list)

    def handle_failure(self, record: str, error: BaseException, attempt: int) -> int | None:
        """Process one caught failure; next attempt number or ``None``."""
        if self.on_caught is not None:
            self.on_caught(record, attempt)
        if attempt >= self.max_attempts:
            report = error if self.on_exhausted is None else self.on_exhausted(
                record, error, attempt
            )
            self.reports.append(report)
            return None
        if self.on_retry is not None:
            self.on_retry(record, attempt)
        if self.delay is not None:
            pause = self.delay(record, attempt)
            if pause > 0:
                time.sleep(pause)
        return attempt + 1




def _retry_in_place(
    func: Callable[[Any], Any], items: Sequence[Any], indices: range,
    isolation: Isolation,
) -> tuple[list[Any], None, None]:
    """The serial backend's isolated chunk body, shaped like :func:`_run_chunk`.

    Retries happen in place (no resubmission machinery), with the same
    attempt numbering and callbacks, so retry counts and exhaustion
    reports match the pool backends exactly.
    """
    scope = isolation.attempt_scope
    values: list[Any] = []
    for i in indices:
        attempt = 1
        while True:
            try:
                if scope is not None:
                    with scope(attempt):
                        values.append(func(items[i]))
                else:
                    values.append(func(items[i]))
                break
            except isolation.retryable as exc:
                name = isolation.describe(items[i])
                next_attempt = isolation.handle_failure(name, exc, attempt)
                if next_attempt is None:
                    values.append(None)
                    break
                attempt = next_attempt
    return values, None, None


def _drain(
    pool: Executor, func: Callable, items: Sequence[Any], chunks: list[range],
    results: list[Any], window: _Window, fold: _Fold, name: str,
    isolation: Isolation | None,
) -> None:
    """Run ``chunks`` on ``pool`` in rounds, folding every envelope.

    Each round submits its chunks, waits once for all of them (or the
    first exception) and folds every envelope that landed.  A retryable
    casualty (attempt N+1) and its chunk's unstarted tail (attempt 1)
    form the next round; a loop without failures is one round.

    On a non-retryable failure, chunks not yet started are cancelled
    and chunks already running are *waited for* before the exception
    propagates — a shared executor must come back quiescent, not with
    orphaned chunks still mutating the workspace under the caller's
    error handling.  The envelopes of every chunk that did complete are
    folded first, so observability stays accurate for partial runs.
    """
    retryable, scope = ((), None) if isolation is None else (
        isolation.retryable, isolation.attempt_scope
    )
    batch = [(chunk, 1) for chunk in chunks]
    while batch:
        futures = {
            pool.submit(_windowed, window, _run_chunk, func, items, indices,
                        attempt, retryable, scope): (indices, attempt)
            for indices, attempt in batch
        }
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        failed = next((f for f in done if f.exception() is not None), None)
        if failed is not None:
            for f in not_done:
                f.cancel()
            if not_done:
                wait(not_done)
        batch = []
        for future, (indices, attempt) in futures.items():
            if future.cancelled() or future.exception() is not None:
                continue
            result, envelope = future.result()
            fold(name, envelope, executed=_executed(result),
                 chunk_start=indices.start, size=len(indices))
            if failed is not None:
                continue
            values, offset, error = result
            for i, value in zip(indices, values):
                results[i] = value
            if offset is None:
                continue
            poisoned = indices[offset]
            next_attempt = isolation.handle_failure(
                isolation.describe(items[poisoned]), error, attempt
            )
            if next_attempt is None:
                results[poisoned] = None
            else:
                batch.append((indices[offset:offset + 1], next_attempt))
            if offset + 1 < len(indices):
                batch.append((indices[offset + 1:], 1))
        if failed is not None:
            raise failed.exception()


def parallel_for(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    backend: Backend | str = Backend.THREAD,
    num_workers: int | None = None,
    schedule: Schedule | str = Schedule.DYNAMIC,
    chunk_size: int | None = None,
    executor: Executor | None = None,
    tracer: Tracer | None = None,
    span: str | None = None,
    metrics: MetricsRegistry | None = None,
    isolate: Isolation | None = None,
) -> list[Any]:
    """Map ``func`` over ``items`` in parallel, preserving order.

    The worker pool size defaults to the machine's logical processor
    count (OpenMP's default).  Exceptions raised by any body propagate
    to the caller after outstanding chunks are cancelled.  Pass an
    ``executor`` (see :func:`shared_executor`) to reuse a pool across
    loops; it is left open for the caller to manage.

    With a ``tracer``, every chunk becomes a ``chunk`` span named
    ``span`` (default: the function's name), parented to whatever span
    is open on the calling thread — workers measure themselves, so this
    works identically on the thread and process backends.

    With a ``metrics`` registry, every chunk increments the
    ``repro_parallel_*`` counter/histogram families, and metrics
    recorded *inside* the loop body (I/O bytes, points processed) find
    their way back on every backend: directly when the registry is
    installed in this process (:func:`~repro.observability.metrics.collecting`)
    and the body runs here, via per-chunk worker shards otherwise.

    With an ``isolate`` policy (see :class:`Isolation`), retryable
    failures stop only the failing item — it is retried up to the
    policy's attempts and, on give-up, yields ``None`` in the results
    plus a report in ``isolate.reports`` while its chunk mates and the
    rest of the loop complete normally, on every backend.
    """
    backend = Backend.coerce(backend)
    items = list(items)
    n = len(items)
    if n == 0:
        return []
    workers = resolve_workers(num_workers)
    chunks = chunk_indices(n, workers, schedule, chunk_size)

    name = span or getattr(func, "__name__", "parallel_for")
    if tracer is not None and not tracer.enabled:
        tracer = None
    window = _open_window("chunk", name, backend, tracer, metrics)
    fold = _Fold("chunk", backend.value, tracer, metrics, Schedule.coerce(schedule).value)
    if window.events is not None:
        # The driver announces the loop's size up front, so a live
        # monitor can draw a bounded progress bar before any chunk
        # lands.
        emit_channel(window.events, "units_total", total=n, chunks=len(chunks),
                     backend=backend.value)

    results: list[Any] = [None] * n
    if executor is not None:
        _drain(executor, func, items, chunks, results, window, fold, name, isolate)
    elif backend is Backend.SERIAL or workers == 1 or n == 1:
        # In-process chunks run under a live span, so spans the body
        # opens nest under their chunk; the fold then skips the record.
        for chunk in chunks:
            body = (_run_chunk, func, items, chunk) if isolate is None else (
                _retry_in_place, func, items, chunk, isolate
            )
            with fold.live_span(name, chunk_start=chunk.start, size=len(chunk)):
                result, envelope = _windowed(window, *body)
            fold(name, envelope, traced=False, executed=_executed(result))
            for i, value in zip(chunk, result[0]):
                results[i] = value
    else:
        with _pool(backend, min(workers, len(chunks))) as pool:
            _drain(pool, func, items, chunks, results, window, fold, name, isolate)
    return results


class TaskGroup:
    """``#pragma omp parallel`` / ``single`` / ``task`` / ``taskwait``.

    Usage::

        with TaskGroup(backend="thread", num_workers=4) as tg:
            tg.task(initialize_flags)
            tg.task(gather_input_files, workspace)
        # <- implicit taskwait: all tasks have completed here
        results = tg.results  # in submission order

    A failing task propagates its exception at the barrier (and on
    :meth:`taskwait`) on every backend; tasks submitted after it still
    run.

    With a ``tracer``, every task becomes a ``task`` span (named by the
    ``span_name=`` keyword of :meth:`task`, default the function name)
    parented to whatever span was open when the group was created.

    Pass an ``executor`` (see :func:`shared_executor`) to run the tasks
    on a borrowed pool, as :func:`parallel_for` does; the group's
    barrier waits for its own tasks only and leaves the pool open.
    """

    def __init__(
        self,
        *,
        backend: Backend | str = Backend.THREAD,
        num_workers: int | None = None,
        executor: Executor | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.backend = Backend.coerce(backend)
        self.num_workers = resolve_workers(num_workers)
        self._pool: Executor | None = executor
        self._owned = executor is None
        #: Closes a pool the group builds for itself.
        self._stack = ExitStack()
        #: ``(future, span_name)`` per submitted task.
        self._futures: list[tuple[Any, str]] = []
        self._serial_results: list[Any] = []
        #: The first serial task failure, held until the barrier.
        self._serial_error: Exception | None = None
        self.results: list[Any] = []
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._metrics = metrics
        self._fold = _Fold("task", self.backend.value, self._tracer, metrics)

    def __enter__(self) -> "TaskGroup":
        if self._owned and self.backend is not Backend.SERIAL and self.num_workers > 1:
            self._pool = self._stack.enter_context(_pool(self.backend, self.num_workers))
        return self

    def task(
        self,
        func: Callable[..., Any],
        *args: Any,
        span_name: str | None = None,
        **kwargs: Any,
    ) -> None:
        """Submit one task (``#pragma omp task``)."""
        name = span_name or getattr(func, "__name__", "task")
        window = _open_window("task", name, self.backend, self._tracer, self._metrics)
        if self._pool is not None:
            future = self._pool.submit(_windowed, window, func, *args, **kwargs)
            self._futures.append((future, name))
            if self._metrics is not None:
                outstanding = sum(1 for f, _ in self._futures if not f.done())
                self._metrics.gauge(
                    "repro_parallel_task_queue_depth",
                    help="High-water mark of tasks outstanding in a TaskGroup.",
                ).set_max(outstanding)
            return
        try:
            with self._fold.live_span(name):
                value, envelope = _windowed(window, func, *args, **kwargs)
        except Exception as exc:
            if self._serial_error is None:
                self._serial_error = exc
            return
        self._fold(name, envelope, traced=False)
        self._serial_results.append(value)

    def taskwait(self) -> list[Any]:
        """Barrier: wait for all submitted tasks, collect their results.

        Tasks that did finish are folded (span records, metrics and
        profile shards) before the first failure, in submission order,
        is raised — so a partial group stays observable.
        """
        if self._pool is None:
            batch, self._serial_results = self._serial_results, []
            error, self._serial_error = self._serial_error, None
            if error is not None:
                raise error
        else:
            futures, self._futures = self._futures, []
            wait([f for f, _ in futures])
            batch = []
            failed = None
            for future, name in futures:
                if future.exception() is not None:
                    if failed is None:
                        failed = future
                    continue
                value, envelope = future.result()
                self._fold(name, envelope)
                batch.append(value)
            if failed is not None:
                raise failed.exception()
        self.results.extend(batch)
        return batch

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            if exc_type is None:
                self.taskwait()
        finally:
            if self._owned:
                self._stack.close()
                self._pool = None
            elif self._futures:
                # A borrowed pool goes back quiescent: no task of this
                # group may still run under the caller's error handling.
                wait([f for f, _ in self._futures])
