"""Cross-process sampling profiler.

The tracer answers *when* a stage ran; this module answers *where
inside it the CPU time went*.  A :class:`SamplingProfiler` thread wakes
``hz`` times per second, snapshots every interpreter frame via
``sys._current_frames()``, and folds each stack into a :class:`Profile`
— a weighted multiset of ``(stack, labels)`` pairs.  Labels are the
span attribution: each sampled thread is tagged with the stage,
process ``PXX``, implementation, backend and loop span that were active
on it, resolved from the tracer's live per-thread span stacks
(driver threads) or from the explicit label registrations the worker
window of :mod:`repro.parallel.omp` makes around each chunk/task body.

Crossing process boundaries works exactly like the metric shards of
:mod:`repro.observability.metrics`: pool workers run their own private
sampler, bracketed per chunk/task by :func:`begin_worker_profile` /
:func:`drain_worker_profile`; the drained :meth:`Profile.to_dict` shard
travels home with the chunk results and the driver merges it with
:meth:`Profile.merge`.  Merging is associative and commutative (pure
addition of sample weights), so the merged profile is independent of
scheduling order, chunking, and backend — the property suite checks
this.

A profile exports as collapsed-stack text (``flamegraph.pl`` /
speedscope paste format) and as speedscope JSON
(https://www.speedscope.app), and its top frames annotate the Chrome
trace's stage spans.  When no profiler is installed the hooks cost one
pid-guarded global read per loop; with one installed, overhead is the
sampler thread's tick (~tens of microseconds per sample at the default
rate — see ``docs/profiling.md`` for measured numbers).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ReproError

#: Default sampling rate (samples per second).  Prime-ish, so the timer
#: does not phase-lock with 10 ms scheduler ticks or 50 ms resource
#: samples.
DEFAULT_HZ = 97.0

#: Deepest stack we record; frames below the cut are dropped root-side.
MAX_STACK_DEPTH = 128

#: Module prefixes of the interpreter's own plumbing.  A stack made
#: entirely of these is a parked thread (pool worker between chunks,
#: executor management thread); a labeled stack whose *leaf* is one is
#: a thread waiting on a barrier/queue inside attributed work.
_RUNTIME_MODULES = (
    "threading",
    "queue",
    "selectors",
    "concurrent",
    "multiprocessing",
    "socket",
    "subprocess",
)

#: Thread names the sampler never records: its own tick thread and the
#: sibling telemetry threads, which would otherwise profile the act of
#: profiling.
EXCLUDED_THREAD_NAMES = ("stack-sampler", "resource-sampler")

LabelKey = tuple[tuple[str, str], ...]
StackKey = tuple[str, ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _frame_name(frame: Any) -> str:
    """One frame rendered as ``module:function``."""
    module = frame.f_globals.get("__name__")
    if not module:
        module = os.path.basename(frame.f_code.co_filename or "?")
    return f"{module}:{frame.f_code.co_name}"


def unwind(frame: Any) -> StackKey:
    """The stack of ``frame``, root first, capped at the depth limit."""
    names: list[str] = []
    while frame is not None and len(names) < MAX_STACK_DEPTH:
        names.append(_frame_name(frame))
        frame = frame.f_back
    names.reverse()
    return tuple(names)


def _is_runtime_frame(name: str) -> bool:
    module = name.split(":", 1)[0]
    return module.startswith(_RUNTIME_MODULES)


def stack_state(stack: StackKey) -> str:
    """Classify a stack: ``working``, ``waiting`` (attributable work
    parked on a lock/queue/barrier) or ``idle`` (pure runtime plumbing,
    e.g. a pool thread between chunks)."""
    if not stack:
        return "idle"
    if all(_is_runtime_frame(name) for name in stack):
        return "idle"
    if _is_runtime_frame(stack[-1]):
        return "waiting"
    return "working"


class Profile:
    """A weighted multiset of sampled call stacks.

    Each entry keys on ``(labels, stack)`` and accumulates a sample
    count plus the seconds those samples represent (count x the
    sampling interval in force when they were taken, so profiles
    recorded at different rates merge without bias).  Merging adds
    entry-wise — associative and commutative — which is what lets
    per-worker shards travel home with chunk results and fold in any
    order.
    """

    def __init__(self, interval_s: float = 1.0 / DEFAULT_HZ) -> None:
        if interval_s <= 0:
            raise ReproError(f"sampling interval must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self._entries: dict[tuple[LabelKey, StackKey], list[float]] = {}
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def record(
        self, stack: StackKey, labels: dict[str, Any] | None = None,
        weight_s: float | None = None, count: int = 1,
    ) -> None:
        """Fold ``count`` samples of ``stack`` into the profile."""
        key = (_label_key(labels or {}), tuple(stack))
        weight = float(weight_s) if weight_s is not None else count * self.interval_s
        with self._lock:
            slot = self._entries.get(key)
            if slot is None:
                self._entries[key] = [float(count), weight]
            else:
                slot[0] += count
                slot[1] += weight

    # -- reading -----------------------------------------------------------

    def entries(self) -> list[tuple[dict[str, str], StackKey, int, float]]:
        """Every ``(labels, stack, count, seconds)`` row, sorted."""
        with self._lock:
            items = sorted(self._entries.items())
        return [
            (dict(labels), stack, int(slot[0]), slot[1])
            for (labels, stack), slot in items
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_samples(self) -> int:
        """Number of samples recorded (all states)."""
        with self._lock:
            return int(sum(slot[0] for slot in self._entries.values()))

    @property
    def total_seconds(self) -> float:
        """Summed sample weight in seconds."""
        with self._lock:
            return sum(slot[1] for slot in self._entries.values())

    def _matches(self, labels: dict[str, str], wanted: dict[str, str]) -> bool:
        return all(labels.get(k) == v for k, v in wanted.items())

    def attributed_fraction(self) -> float:
        """Fraction of non-idle samples that carry span attribution.

        Idle samples (parked pool threads, executor plumbing) are
        excluded from the denominator: they are no thread's *work*.
        The acceptance bar for a merged pipeline profile is >= 0.95.
        """
        attributed = 0
        denominator = 0
        for labels, _stack, count, _s in self.entries():
            if labels.get("state") == "idle":
                continue
            denominator += count
            if any(k in labels for k in ("span", "stage", "process", "implementation")):
                attributed += count
        return attributed / denominator if denominator else 0.0

    def top_frames(
        self, n: int = 10, *, include_waiting: bool = False, **label_filter: str
    ) -> list[tuple[str, float, int]]:
        """The hottest leaf frames: ``(frame, seconds, count)`` rows.

        Self-time attribution — each sample charges its leaf frame.
        Waiting and idle samples are excluded by default so barrier
        waits do not drown the actual work; pass label filters
        (``stage="IX"``) to restrict to one attribution slice.
        """
        wanted = {str(k): str(v) for k, v in label_filter.items()}
        agg: dict[str, list[float]] = {}
        for labels, stack, count, seconds in self.entries():
            if not stack or labels.get("state") == "idle":
                continue
            if not include_waiting and labels.get("state") == "waiting":
                continue
            if not self._matches(labels, wanted):
                continue
            slot = agg.setdefault(stack[-1], [0.0, 0.0])
            slot[0] += seconds
            slot[1] += count
        ranked = sorted(agg.items(), key=lambda kv: (-kv[1][0], kv[0]))
        return [(frame, seconds, int(count)) for frame, (seconds, count) in ranked[:n]]

    def label_values(self, key: str) -> list[str]:
        """Distinct values of one label key, sorted."""
        return sorted({
            labels[key] for labels, _stack, _c, _s in self.entries() if key in labels
        })

    # -- serialization / merging ------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (also the shard wire format)."""
        return {
            "interval_s": self.interval_s,
            "entries": [
                {
                    "labels": [list(pair) for pair in sorted(labels.items())],
                    "stack": list(stack),
                    "count": count,
                    "seconds": seconds,
                }
                for labels, stack, count, seconds in self.entries()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Profile":
        """Inverse of :meth:`to_dict`."""
        profile = cls(interval_s=float(data.get("interval_s") or 1.0 / DEFAULT_HZ))
        profile.merge(data)
        return profile

    def merge(self, other: "Profile | dict[str, Any]") -> "Profile":
        """Fold another profile (or its :meth:`to_dict` shard) into this
        one.  Entry-wise addition: associative and commutative, so
        shards merge in any order and grouping.  Returns ``self``."""
        shard = other.to_dict() if isinstance(other, Profile) else other
        for entry in shard.get("entries", ()):
            self.record(
                tuple(entry["stack"]),
                dict(tuple(pair) for pair in entry["labels"]),
                weight_s=float(entry["seconds"]),
                count=int(entry["count"]),
            )
        return self

    # -- exports -----------------------------------------------------------

    def to_collapsed(self, *, include_idle: bool = False) -> str:
        """Collapsed-stack text: one ``frame;frame;frame count`` line
        per distinct stack (flamegraph.pl / speedscope paste format).
        Stacks are aggregated across label sets; counts are samples."""
        agg: dict[StackKey, int] = {}
        for labels, stack, count, _seconds in self.entries():
            if not stack:
                continue
            if not include_idle and labels.get("state") == "idle":
                continue
            agg[stack] = agg.get(stack, 0) + count
        return "".join(
            f"{';'.join(stack)} {count}\n" for stack, count in sorted(agg.items())
        )

    @classmethod
    def from_collapsed(cls, text: str, interval_s: float = 1.0 / DEFAULT_HZ) -> "Profile":
        """Parse collapsed-stack text back into a profile (labels are
        not part of the format and come back empty)."""
        profile = cls(interval_s=interval_s)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            stack_text, _, count_text = line.rpartition(" ")
            profile.record(tuple(stack_text.split(";")), count=int(count_text))
        return profile

    def to_speedscope(
        self, name: str = "repro", *, group_by: str | None = None,
        include_idle: bool = False,
    ) -> dict[str, Any]:
        """The profile in speedscope's JSON file format.

        Each distinct stack becomes one weighted sample of a
        ``"sampled"`` profile.  ``group_by`` (a label key, e.g.
        ``"stage"``) splits the samples into one profile per label
        value, so the speedscope profile picker doubles as a per-stage
        flamegraph browser.
        """
        frames: list[dict[str, str]] = []
        frame_index: dict[str, int] = {}

        def index_of(frame: str) -> int:
            if frame not in frame_index:
                frame_index[frame] = len(frames)
                frames.append({"name": frame})
            return frame_index[frame]

        groups: dict[str, list[tuple[StackKey, float]]] = {}
        for labels, stack, _count, seconds in self.entries():
            if not stack:
                continue
            if not include_idle and labels.get("state") == "idle":
                continue
            group = labels.get(group_by, "-") if group_by else name
            groups.setdefault(group, []).append((stack, seconds))

        profiles = []
        for group in sorted(groups):
            samples = []
            weights = []
            for stack, seconds in groups[group]:
                samples.append([index_of(frame) for frame in stack])
                weights.append(round(seconds, 6))
            profiles.append(
                {
                    "type": "sampled",
                    "name": group,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": round(sum(weights), 6),
                    "samples": samples,
                    "weights": weights,
                }
            )
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": profiles,
            "name": name,
            "activeProfileIndex": 0,
            "exporter": "repro.observability.profiling",
        }


def write_speedscope(
    path: Path | str, profile: Profile, *, name: str = "repro",
    group_by: str | None = None,
) -> Path:
    """Write :meth:`Profile.to_speedscope` output to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(profile.to_speedscope(name, group_by=group_by), indent=1) + "\n"
    )
    return path


def write_collapsed(path: Path | str, profile: Profile) -> Path:
    """Write :meth:`Profile.to_collapsed` output to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(profile.to_collapsed())
    return path


# -- span attribution ------------------------------------------------------


def span_stack_labels(spans: list[Any]) -> dict[str, str]:
    """Attribution labels of one thread's open span stack.

    Walks outermost to innermost, so inner spans refine outer ones:
    the run span contributes the implementation, the stage span the
    stage, the process span ``PXX``, and the innermost span names the
    ``span`` label.
    """
    labels: dict[str, str] = {}
    for span in spans:
        if span.kind in ("run", "implementation"):
            labels["implementation"] = str(
                span.attributes.get("implementation", span.name)
            )
        elif span.kind == "stage":
            labels["stage"] = span.name
        elif span.kind == "process":
            labels["stage"] = str(span.attributes.get("stage", labels.get("stage", "")))
            pid = span.attributes.get("pid")
            labels["process"] = f"P{pid}" if pid is not None else span.name
        elif span.kind == "batch":
            labels["batch"] = span.name
    if spans:
        labels["span"] = spans[-1].name
    return labels


# -- the sampler -----------------------------------------------------------


class SamplingProfiler:
    """Timer-thread wall-clock profiler of every interpreter thread.

    Use as a context manager (or :meth:`start` / :meth:`stop`) around
    the work being observed; :attr:`profile` accumulates across the
    whole session, and worker shards merged in by the parallel runtime
    land in the same object.  A pickled profiler (the process backend
    pickles the :class:`~repro.core.context.RunContext` into its
    workers) deserializes *disabled and empty*: workers sample
    themselves through the window protocol below, never through the
    driver's object.
    """

    def __init__(self, hz: float = DEFAULT_HZ, tracer: Any = None) -> None:
        if hz <= 0:
            raise ReproError(f"sampling rate must be positive, got {hz}")
        self.hz = float(hz)
        self.enabled = True
        self._tracer = tracer
        self.profile = Profile(interval_s=1.0 / self.hz)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- pickling: cross the process boundary as a no-op ----------------

    def __getstate__(self) -> dict[str, Any]:
        return {"hz": self.hz}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(hz=state.get("hz", DEFAULT_HZ))
        self.enabled = False

    def attach_tracer(self, tracer: Any) -> None:
        """Late-bind the tracer whose span stacks attribute samples."""
        if tracer is not None:
            self._tracer = tracer

    # -- attribution -------------------------------------------------------

    def _labels_for(self, tid: int, stack: StackKey) -> dict[str, str]:
        labels = thread_labels(tid)
        if labels is None and self._tracer is not None:
            spans = getattr(self._tracer, "open_spans", lambda: {})().get(tid)
            if spans:
                labels = span_stack_labels(spans)
        labels = dict(labels) if labels else {}
        state = stack_state(stack)
        if state != "working" and (labels or state == "idle"):
            labels["state"] = state
        return labels

    def labels_here(self) -> dict[str, str]:
        """Attribution labels of the *calling* thread, right now.

        The parallel runtime calls this on the driver thread when a
        loop starts, capturing run/stage/process attribution to hand
        to the worker window, whose threads have no span stack of their
        own.
        """
        if self._tracer is None:
            return {}
        spans = getattr(self._tracer, "open_spans", lambda: {})().get(
            threading.get_ident()
        )
        return span_stack_labels(spans) if spans else {}

    # -- sampling ----------------------------------------------------------

    def sample_once(self) -> int:
        """Take one snapshot of every thread; returns samples recorded."""
        names = {t.ident: t.name for t in threading.enumerate()}
        own = threading.get_ident()
        recorded = 0
        for tid, frame in sys._current_frames().items():
            if tid == own or tid == getattr(self._thread, "ident", None):
                continue
            if names.get(tid, "") in EXCLUDED_THREAD_NAMES:
                continue
            stack = unwind(frame)
            self.profile.record(stack, self._labels_for(tid, stack))
            recorded += 1
        return recorded

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    def start(self) -> "SamplingProfiler":
        """Start the sampling thread (idempotent; no-op when disabled)."""
        if self._thread is not None or not self.enabled:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Profile:
        """Stop sampling; returns the accumulated :attr:`profile`."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        return self.profile

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


# -- collection plumbing ---------------------------------------------------
#
# Mirrors the metrics module: the driver installs its profiler for the
# run's duration; the omp worker window brackets each chunk/task body
# with begin_worker_profile / drain_worker_profile.  In-process (serial
# and thread backends) the driver's sampler already sees the body's
# thread, so the window just registers attribution labels for it;
# in pool processes a private per-process sampler records into a
# swappable window profile that ships home as a shard.  All slots are
# pid-guarded so state inherited across a fork is treated as absent.

_installed: tuple[SamplingProfiler, int] | None = None
_thread_labels: tuple[dict[int, dict[str, str]], int] | None = None
_worker_sampler: tuple["_WorkerSampler", int] | None = None


def installed_profiler() -> SamplingProfiler | None:
    """The driver-installed profiler, unless inherited across a fork."""
    if _installed is not None and _installed[1] == os.getpid():
        return _installed[0]
    return None


@contextmanager
def profiling_session(
    profiler: SamplingProfiler | None, tracer: Any = None
) -> Iterator[SamplingProfiler | None]:
    """Install ``profiler`` as this process's sampler and run it.

    Tolerates ``None`` (yields without installing) so callers can pass
    an optional profiler straight through.
    """
    global _installed
    if profiler is None or not profiler.enabled:
        yield None
        return
    profiler.attach_tracer(tracer)
    previous = _installed
    _installed = (profiler, os.getpid())
    try:
        with profiler:
            yield profiler
    finally:
        _installed = previous


def thread_labels(tid: int) -> dict[str, str] | None:
    """Labels registered for one thread, if any (pid-guarded)."""
    if _thread_labels is None or _thread_labels[1] != os.getpid():
        return None
    return _thread_labels[0].get(tid)


def _register_thread_labels(labels: dict[str, str]) -> int:
    global _thread_labels
    tid = threading.get_ident()
    if _thread_labels is None or _thread_labels[1] != os.getpid():
        _thread_labels = ({}, os.getpid())
    _thread_labels[0][tid] = labels
    return tid


def _unregister_thread_labels(tid: int) -> None:
    if _thread_labels is not None and _thread_labels[1] == os.getpid():
        _thread_labels[0].pop(tid, None)


class _WorkerSampler:
    """The per-pool-process sampler behind the window protocol.

    One daemon thread per worker process, started lazily on the first
    profiled chunk and reused for every later one (thread creation is
    not paid per chunk).  Samples are recorded only while a window is
    open, into that window's private profile, tagged with the window's
    labels — between windows the ticks fall on the floor.
    """

    def __init__(self, hz: float) -> None:
        self.hz = float(hz)
        self._lock = threading.Lock()
        self._window: tuple[Profile, dict[str, str]] | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="stack-sampler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            with self._lock:
                window = self._window
            if window is None:
                continue
            profile, labels = window
            own = threading.get_ident()
            names = {t.ident: t.name for t in threading.enumerate()}
            for tid, frame in sys._current_frames().items():
                if tid == own or names.get(tid, "") in EXCLUDED_THREAD_NAMES:
                    continue
                stack = unwind(frame)
                state = stack_state(stack)
                if state == "idle":
                    continue
                tagged = dict(labels)
                if state == "waiting":
                    tagged["state"] = state
                profile.record(stack, tagged)

    def open(self, labels: dict[str, str]) -> None:
        with self._lock:
            self._window = (Profile(interval_s=1.0 / self.hz), dict(labels))

    def close(self) -> Profile | None:
        with self._lock:
            window, self._window = self._window, None
        return window[0] if window is not None else None


def begin_worker_profile(hz: float, labels: dict[str, str]) -> tuple[str, Any]:
    """Open a profiling window around one chunk/task body.

    In a process with an installed driver profiler (serial and thread
    backends) this registers the labels for the calling thread so the
    driver's sampler attributes it; in a bare pool process it opens a
    window on the process's private sampler.  Returns an opaque token
    for :func:`drain_worker_profile`.
    """
    if installed_profiler() is not None:
        return ("labels", _register_thread_labels(dict(labels)))
    global _worker_sampler
    if _worker_sampler is None or _worker_sampler[1] != os.getpid():
        _worker_sampler = (_WorkerSampler(hz), os.getpid())
    _worker_sampler[0].open(labels)
    return ("window", _worker_sampler[0])


def drain_worker_profile(token: tuple[str, Any]) -> dict[str, Any] | None:
    """Close a window opened by :func:`begin_worker_profile`.

    Returns the worker's profile shard (``None`` when the driver's
    sampler covered the thread directly, or nothing was caught)."""
    kind, value = token
    if kind == "labels":
        _unregister_thread_labels(value)
        return None
    profile = value.close()
    if profile is None or len(profile) == 0:
        return None
    return profile.to_dict()


def merge_profile_shard(shard: dict[str, Any] | None) -> None:
    """Fold a worker's profile shard into the installed profiler."""
    if not shard:
        return
    profiler = installed_profiler()
    if profiler is not None:
        profiler.profile.merge(shard)
