"""The run-metrics registry.

Where the tracer records *intervals*, this module records *aggregates*:
counters (chunks scheduled, artifact bytes written, data points
processed), gauges (task queue depth, run duration) and fixed-boundary
histograms (chunk/task durations).  One :class:`MetricsRegistry` lives
on the driver's :class:`~repro.core.context.RunContext`; every layer of
the pipeline increments into it.

Crossing process boundaries works like the tracer's span records, not
like a shared-memory store: each chunk/task body accumulates into a
private per-thread *shard* opened by the worker window of
:mod:`repro.parallel.omp` (:func:`begin_worker_window` /
:func:`drain_worker_shard`), the shard travels back with the chunk/task
results, and the driver merges it with :meth:`MetricsRegistry.merge`.
Merging is associative and commutative and preserves histogram counts
and sums exactly — the property suite checks this — so the merged
registry is independent of scheduling order, chunking, and backend.

Instrumentation helpers (:func:`record_io`, :func:`record_points`,
:func:`record_process`) route through :func:`recording_registry`, which
resolves to the driver's installed registry in-process and to the
calling thread's open worker shard otherwise; with neither present they
are no-ops, so instrumented code costs one dict lookup when metrics are
off.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.errors import ReproError

#: Default histogram boundaries for durations (seconds).  Upper bounds
#: of the finite buckets; one +Inf bucket is always appended.
DURATION_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
)

#: Default histogram boundaries for byte sizes.
SIZE_BUCKETS: tuple[float, ...] = (1e3, 1e4, 1e5, 1e6, 1e7, 1e8)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum.  Merge: addition."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ReproError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def payload(self) -> dict[str, Any]:
        return {"value": self.value}

    def load(self, data: dict[str, Any]) -> None:
        self.value = float(data["value"])

    def merge(self, data: dict[str, Any]) -> None:
        self.value += float(data["value"])


class Gauge:
    """A point-in-time value.  Merge: maximum (high-water semantics —
    the only order-independent combination of per-worker readings)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the reading."""
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the larger of the current and the new reading."""
        self.value = max(self.value, float(value))

    def payload(self) -> dict[str, Any]:
        return {"value": self.value}

    def load(self, data: dict[str, Any]) -> None:
        self.value = float(data["value"])

    def merge(self, data: dict[str, Any]) -> None:
        self.value = max(self.value, float(data["value"]))


class Histogram:
    """Fixed-boundary histogram.  Merge: bucketwise addition.

    ``boundaries`` are the upper bounds of the finite buckets; an
    implicit +Inf bucket catches the rest.  Boundaries are part of the
    identity — merging histograms with different boundaries raises.
    """

    kind = "histogram"
    __slots__ = ("boundaries", "counts", "sum")

    def __init__(self, boundaries: tuple[float, ...] = DURATION_BUCKETS) -> None:
        if list(boundaries) != sorted(boundaries) or len(set(boundaries)) != len(boundaries):
            raise ReproError(f"histogram boundaries must be strictly increasing: {boundaries}")
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        """Total number of observations."""
        return sum(self.counts)

    def observe(self, value: float) -> None:
        """Record one observation."""
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value

    def payload(self) -> dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.sum,
        }

    def load(self, data: dict[str, Any]) -> None:
        self.counts = [int(c) for c in data["counts"]]
        self.sum = float(data["sum"])

    def merge(self, data: dict[str, Any]) -> None:
        if tuple(float(b) for b in data["boundaries"]) != self.boundaries:
            raise ReproError(
                f"cannot merge histograms with different boundaries: "
                f"{data['boundaries']} vs {list(self.boundaries)}"
            )
        self.counts = [a + int(b) for a, b in zip(self.counts, data["counts"])]
        self.sum += float(data["sum"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A thread-safe family of named, labeled instruments.

    Instruments are get-or-create by (name, labels); a name is bound to
    one kind (and, for histograms, one boundary set) for the registry's
    lifetime.  Pickling a registry (the process backend pickles the
    :class:`~repro.core.context.RunContext` into its workers) yields an
    *empty* one: workers accumulate into their own shard and hand it
    back through the runtime, they never write here directly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelKey], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._boundaries: dict[str, tuple[float, ...]] = {}

    # -- pickling: cross the process boundary empty ---------------------

    def __getstate__(self) -> dict[str, Any]:
        return {}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__()

    # -- instrument access ----------------------------------------------

    def _get(
        self, kind: str, name: str, help_text: str, labels: dict[str, Any],
        boundaries: tuple[float, ...] | None = None,
    ) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            bound_kind = self._kinds.setdefault(name, kind)
            if bound_kind != kind:
                raise ReproError(f"metric {name!r} is a {bound_kind}, not a {kind}")
            if help_text and name not in self._help:
                self._help[name] = help_text
            if kind == "histogram":
                bound = self._boundaries.setdefault(name, boundaries or DURATION_BUCKETS)
                if boundaries is not None and tuple(boundaries) != bound:
                    raise ReproError(
                        f"metric {name!r} already uses boundaries {bound}"
                    )
                boundaries = bound
            instrument = self._metrics.get(key)
            if instrument is None:
                if kind == "histogram":
                    instrument = Histogram(boundaries or DURATION_BUCKETS)
                else:
                    instrument = _KINDS[kind]()
                self._metrics[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """Get-or-create a counter."""
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        """Get-or-create a gauge."""
        return self._get("gauge", name, help, labels)

    def histogram(
        self, name: str, help: str = "",
        buckets: tuple[float, ...] | None = None, **labels: Any,
    ) -> Histogram:
        """Get-or-create a fixed-boundary histogram."""
        return self._get("histogram", name, help, labels, boundaries=buckets)

    # -- reading ----------------------------------------------------------

    def names(self) -> list[str]:
        """Metric family names, sorted."""
        with self._lock:
            return sorted(self._kinds)

    def samples(self, name: str) -> list[tuple[dict[str, str], Counter | Gauge | Histogram]]:
        """Every (labels, instrument) of one family, in label order."""
        with self._lock:
            found = sorted(
                (key[1], inst) for key, inst in self._metrics.items() if key[0] == name
            )
        return [(dict(labels), inst) for labels, inst in found]

    def value(self, name: str, **labels: Any) -> float | None:
        """Counter/gauge value (histogram: observation count), or None."""
        with self._lock:
            instrument = self._metrics.get((name, _label_key(labels)))
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value

    def total(self, name: str, **label_filter: Any) -> float:
        """Summed counter values across all label sets matching the filter."""
        wanted = {str(k): str(v) for k, v in label_filter.items()}
        total = 0.0
        for labels, inst in self.samples_all():
            if inst.kind != "counter":
                continue
            if labels[0] != name:
                continue
            if all(dict(labels[1]).get(k) == v for k, v in wanted.items()):
                total += inst.value
        return total

    def samples_all(self) -> list[tuple[tuple[str, LabelKey], Counter | Gauge | Histogram]]:
        """Every ((name, labels), instrument), in sorted order."""
        with self._lock:
            return sorted(self._metrics.items(), key=lambda kv: kv[0])

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # -- serialization / merging -----------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (also the merge wire format)."""
        with self._lock:
            metrics = [
                {
                    "name": name,
                    "kind": inst.kind,
                    "labels": [list(pair) for pair in labels],
                    **inst.payload(),
                }
                for (name, labels), inst in sorted(self._metrics.items(), key=lambda kv: kv[0])
            ]
            help_text = dict(self._help)
        return {"metrics": metrics, "help": help_text}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict`."""
        registry = cls()
        registry.merge(data)
        return registry

    def merge(self, other: "MetricsRegistry | dict[str, Any]") -> "MetricsRegistry":
        """Fold another registry (or its :meth:`to_dict` shard) into this one.

        Counters add, gauges take the max, histograms add bucketwise;
        the operation is associative and commutative, so shards may be
        merged in any order and grouping.  Returns ``self``.
        """
        shard = other.to_dict() if isinstance(other, MetricsRegistry) else other
        for entry in shard.get("metrics", ()):
            labels = dict(tuple(pair) for pair in entry["labels"])
            instrument = self._get(
                entry["kind"], entry["name"], shard.get("help", {}).get(entry["name"], ""),
                labels,
                boundaries=tuple(entry["boundaries"]) if entry["kind"] == "histogram" else None,
            )
            instrument.merge(entry)
        return self

    # -- Prometheus text --------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus exposition-format dump of every family."""
        lines: list[str] = []
        for name in self.names():
            samples = self.samples(name)
            if not samples:
                continue
            kind = samples[0][1].kind
            if self._help.get(name):
                lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, inst in samples:
                if isinstance(inst, Histogram):
                    cumulative = 0
                    for bound, count in zip(
                        list(inst.boundaries) + [float("inf")], inst.counts
                    ):
                        cumulative += count
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        lines.append(
                            f"{name}_bucket{_labels_text({**labels, 'le': le})} {cumulative}"
                        )
                    lines.append(f"{name}_sum{_labels_text(labels)} {inst.sum:.6f}")
                    lines.append(f"{name}_count{_labels_text(labels)} {inst.count}")
                else:
                    lines.append(f"{name}{_labels_text(labels)} {inst.value:.6f}")
        return "\n".join(lines) + "\n" if lines else ""


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        '{}="{}"'.format(
            k, str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


# -- collection plumbing ---------------------------------------------------
#
# Driver side: ``collecting(registry)`` installs the run's registry for
# the duration; instrumented code anywhere on the driver's threads
# reaches it through ``recording_registry()``.  Everywhere else, the
# worker window of :mod:`repro.parallel.omp` brackets each chunk/task
# body with ``begin_worker_window`` / ``drain_worker_shard`` and
# ships the shard home.  The window slot is per thread, so concurrent
# pool threads each fill their own shard, and a window opened inside
# another (a serial loop inside a serial task) resumes the outer one
# when it drains.  Both slots are pid-guarded so state inherited across
# a fork (process pools fork lazily) is treated as absent rather than
# silently written to.

_installed: tuple[MetricsRegistry, int] | None = None
_window = threading.local()


@contextmanager
def collecting(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry | None]:
    """Install ``registry`` as this process's recording target.

    Tolerates ``None`` (yields without installing) so callers can pass
    an optional registry straight through.
    """
    global _installed
    if registry is None:
        yield None
        return
    previous = _installed
    _installed = (registry, os.getpid())
    try:
        yield registry
    finally:
        _installed = previous


def installed_registry() -> MetricsRegistry | None:
    """The driver-installed registry, unless inherited across a fork."""
    if _installed is not None and _installed[1] == os.getpid():
        return _installed[0]
    return None


def _current_window() -> tuple[MetricsRegistry, int, Any] | None:
    """This thread's open ``(shard, pid, outer)`` window, if any."""
    slot = getattr(_window, "slot", None)
    if slot is not None and slot[1] == os.getpid():
        return slot
    return None


def begin_worker_window() -> None:
    """Open a fresh shard for the calling thread (the omp worker window
    calls this around every chunk/task body).

    A window still open on this thread (only in-process nesting leaves
    one) resumes when this one drains.
    """
    _window.slot = (MetricsRegistry(), os.getpid(), _current_window())


def drain_worker_shard() -> dict[str, Any] | None:
    """Close this thread's window and return its shard (None if empty)."""
    slot = _current_window()
    if slot is None:
        return None
    registry, _, outer = slot
    _window.slot = outer
    shard = registry.to_dict()
    return shard if shard["metrics"] else None


def recording_registry() -> MetricsRegistry | None:
    """Wherever the current thread should record: the driver-installed
    registry first, else its open worker window, else nowhere."""
    registry = installed_registry()
    if registry is not None:
        return registry
    slot = _current_window()
    return slot[0] if slot is not None else None


# -- instrumentation helpers ----------------------------------------------

_current_scope = None  # resolved lazily; repro.core imports this module


def _scope_process() -> str | None:
    """Process label (``P16``) of the active audit scope, if any."""
    global _current_scope
    if _current_scope is None:
        from repro.core.auditing import current_scope

        _current_scope = current_scope
    scope = _current_scope()
    return scope[0] if scope else None


def record_io(
    op: str, artifact: str, nbytes: int, process: str | None = None,
    count_access: bool = True,
) -> None:
    """Count one artifact access of ``nbytes`` (audit-hook callback).

    ``count_access=False`` adds only the bytes — used by the write-path
    hooks, where the access itself was already counted at open time but
    the size is only known once the payload has been written.
    """
    registry = recording_registry()
    if registry is None:
        return
    process = process or _scope_process() or "-"
    registry.counter(
        "repro_artifact_io_bytes_total",
        help="Bytes read/written per artifact class, attributed to the "
        "pipeline process that performed the access.",
        op=op, artifact=artifact, process=process,
    ).inc(max(0, nbytes))
    if count_access:
        registry.counter(
            "repro_artifact_io_total",
            help="Artifact accesses per artifact class.",
            op=op, artifact=artifact, process=process,
        ).inc(1)


def record_points(npts: int, process: str | None = None) -> None:
    """Count data points read by the current pipeline process."""
    registry = recording_registry()
    if registry is None:
        return
    process = process or _scope_process() or "-"
    registry.counter(
        "repro_points_processed_total",
        help="Record data points read, per pipeline process.",
        process=process,
    ).inc(max(0, npts))


def record_process(pid: int, duration_s: float) -> None:
    """Count one execution of pipeline process ``P<pid>``."""
    registry = recording_registry()
    if registry is None:
        return
    label = f"P{pid}"
    registry.counter(
        "repro_process_runs_total",
        help="Executions per pipeline process.",
        process=label,
    ).inc(1)
    registry.counter(
        "repro_process_seconds_total",
        help="Summed wall-clock per pipeline process.",
        process=label,
    ).inc(duration_s)


def record_fault(kind: str, target: str) -> None:
    """Count one injected fault actually firing (resilience runtime)."""
    registry = recording_registry()
    if registry is None:
        return
    registry.counter(
        "repro_faults_injected_total",
        help="Injected faults that fired, per fault kind and target.",
        kind=kind, target=target,
    ).inc(1)


def record_retry(process: str) -> None:
    """Count one retry of a failed unit of work."""
    registry = recording_registry()
    if registry is None:
        return
    registry.counter(
        "repro_retries_total",
        help="Unit retries performed, per pipeline process.",
        process=process,
    ).inc(1)


def record_quarantine(process: str, kind: str) -> None:
    """Count one record entering quarantine."""
    registry = recording_registry()
    if registry is None:
        return
    registry.counter(
        "repro_quarantined_records_total",
        help="Records quarantined, per originating process and failure class.",
        process=process, kind=kind,
    ).inc(1)
