"""Measured critical path, parallel efficiency, and speedup models.

The tracer records what ran when; this module explains what that means
for speedup.  Three analyses over one finished :class:`Trace`:

- :func:`critical_path` — the *measured* critical path: the run span's
  wall-clock decomposed into segments, each attributed to the span that
  was the bottleneck during that interval.  Within every span the
  longest chain of non-overlapping children (by summed duration) is
  chosen and recursed into; the gaps between chosen children are the
  span's own time.  Summed segment durations equal the run's
  wall-clock, so per-stage critical-path shares are honest percentages.

- :func:`stage_stats` — per-stage parallel structure: total measured
  unit work (chunk/task spans), the longest single unit, the
  number of distinct worker lanes that executed units, and the
  resulting parallel efficiency ``work / (lanes x duration)``.

- :func:`speedup_model` — Amdahl and work-span (Brent) predictions
  built from those stats: serial time is the stages that scheduled no
  parallel units, ``T1`` the total work, ``T_inf`` the span (serial
  time plus each parallel stage's longest unit), and the bound
  ``min(N, T1/T_inf)``.  ``repro-perf explain`` compares these against
  the measured speedup, reproducing the paper's Table IV discussion
  from live data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.observability.tracer import Span, Trace

#: Span kinds counted as parallel work units.
UNIT_KINDS = ("chunk", "task")

#: Share label for critical-path time outside any stage span
#: (implementation setup, batch orchestration).
OUTSIDE_STAGES = "(orchestration)"


@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path, owned by one span."""

    name: str
    kind: str
    #: Enclosing stage name (the stage span itself included), or
    #: ``None`` for orchestration time outside every stage.
    stage: str | None
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _best_chain(children: list[Span], lo: float, hi: float) -> list[Span]:
    """Maximum-total-duration chain of non-overlapping children.

    Weighted interval scheduling over the children's (clamped)
    intervals: the chain that kept the parent busiest is the one the
    parent's wall-clock is decomposed along.
    """
    clamped = []
    for child in children:
        start = max(lo, child.start_s)
        end = min(hi, child.end_s)
        if end > start:
            clamped.append((start, end, child))
    if not clamped:
        return []
    clamped.sort(key=lambda item: item[1])
    n = len(clamped)
    # prev[i]: rightmost j < i whose interval ends at or before i starts.
    prev = [0] * n
    for i, (start, _end, _child) in enumerate(clamped):
        j = i - 1
        while j >= 0 and clamped[j][1] > start:
            j -= 1
        prev[i] = j
    best = [0.0] * (n + 1)
    take = [False] * n
    for i in range(n):
        start, end, _child = clamped[i]
        with_i = best[prev[i] + 1] + (end - start)
        if with_i > best[i]:
            best[i + 1] = with_i
            take[i] = True
        else:
            best[i + 1] = best[i]
    chain: list[Span] = []
    i = n - 1
    while i >= 0:
        if take[i]:
            chain.append(clamped[i][2])
            i = prev[i]
        else:
            i -= 1
    chain.reverse()
    return chain


def _decompose(
    index: dict[int | None, list[Span]],
    span: Span,
    lo: float,
    hi: float,
    stage: str | None,
    out: list[PathSegment],
) -> None:
    if span.kind == "stage":
        stage = span.name
    cursor = lo
    for child in _best_chain(index.get(span.span_id, []), lo, hi):
        start = max(cursor, child.start_s)
        end = min(hi, child.end_s)
        if end <= start:
            continue
        if start > cursor:
            out.append(PathSegment(span.name, span.kind, stage, cursor, start))
        _decompose(index, child, start, end, stage, out)
        cursor = end
    if hi > cursor:
        out.append(PathSegment(span.name, span.kind, stage, cursor, hi))


def _child_index(trace: Trace) -> dict[int | None, list[Span]]:
    index: dict[int | None, list[Span]] = {}
    for span in sorted(trace.spans, key=lambda s: s.start_s):
        index.setdefault(span.parent_id, []).append(span)
    return index


def critical_path(trace: Trace, root: Span | None = None) -> list[PathSegment]:
    """The measured critical path of ``trace``, as ordered segments.

    ``root`` defaults to the longest root span (the run span for a
    single run).  The segments partition the root's wall-clock exactly:
    ``sum(s.duration_s) == root.duration_s``.
    """
    if root is None:
        roots = trace.roots()
        if not roots:
            return []
        root = max(roots, key=lambda s: s.duration_s)
    out: list[PathSegment] = []
    _decompose(_child_index(trace), root, root.start_s, root.end_s, None, out)
    return out


def critical_path_length(segments: list[PathSegment]) -> float:
    """Total length of the path (equals the root span's wall-clock)."""
    return sum(seg.duration_s for seg in segments)


def stage_shares(segments: list[PathSegment]) -> dict[str, float]:
    """Critical-path seconds per stage (``OUTSIDE_STAGES`` for none)."""
    out: dict[str, float] = {}
    for seg in segments:
        key = seg.stage if seg.stage is not None else OUTSIDE_STAGES
        out[key] = out.get(key, 0.0) + seg.duration_s
    return out


@dataclass
class StageStats:
    """Parallel structure of one stage, measured from its subtree."""

    name: str
    duration_s: float
    #: Summed duration of unit spans (chunks/tasks) under the
    #: stage; equals ``duration_s`` for a stage that scheduled none.
    work_s: float
    #: Longest single unit — the stage's span in the work-span sense.
    max_unit_s: float
    units: int
    #: Distinct workers that executed units (1 for a serial stage).
    lanes: int
    parallel: bool

    @property
    def efficiency(self) -> float:
        """Lane utilization: work / (lanes x wall-clock), capped at 1."""
        if self.duration_s <= 0 or self.lanes <= 0:
            return 1.0
        return min(1.0, self.work_s / (self.lanes * self.duration_s))


def stage_stats(trace: Trace) -> list[StageStats]:
    """Per-stage :class:`StageStats`, in stage order of the trace."""
    index = _child_index(trace)
    stats: list[StageStats] = []
    for stage in trace.by_kind("stage"):
        units: list[Span] = []
        frontier = [stage]
        while frontier:
            span = frontier.pop()
            for child in index.get(span.span_id, ()):
                if child.kind in UNIT_KINDS:
                    units.append(child)
                frontier.append(child)
        if units:
            work = sum(u.duration_s for u in units)
            stats.append(
                StageStats(
                    name=stage.name,
                    duration_s=stage.duration_s,
                    work_s=work,
                    max_unit_s=max(u.duration_s for u in units),
                    units=len(units),
                    lanes=len({u.worker for u in units}),
                    parallel=True,
                )
            )
        else:
            stats.append(
                StageStats(
                    name=stage.name,
                    duration_s=stage.duration_s,
                    work_s=stage.duration_s,
                    max_unit_s=stage.duration_s,
                    units=0,
                    lanes=1,
                    parallel=False,
                )
            )
    return stats


@dataclass
class SpeedupModel:
    """Amdahl / work-span predictions derived from one trace."""

    workers: int
    #: Wall-clock of the stages (the measured, parallel execution).
    measured_s: float
    #: Serial fraction's absolute time: stages with no parallel units.
    serial_s: float
    #: Total work: serial stages + summed unit work of parallel stages.
    t1_s: float
    #: Span: serial stages + each parallel stage's longest unit.
    t_inf_s: float

    @property
    def parallel_fraction(self) -> float:
        """Amdahl's ``p``: the parallelizable share of ``T1``."""
        return (self.t1_s - self.serial_s) / self.t1_s if self.t1_s > 0 else 0.0

    @property
    def amdahl_speedup(self) -> float:
        """Amdahl's law at ``workers`` processors."""
        p = self.parallel_fraction
        denom = (1.0 - p) + p / max(1, self.workers)
        return 1.0 / denom if denom > 0 else float("inf")

    @property
    def brent_time_s(self) -> float:
        """Brent's bound on parallel time: ``T1/N + T_inf`` per stage
        (computed stage-wise at construction, summed here)."""
        return self._brent_time_s

    _brent_time_s: float = field(default=0.0, repr=False)

    @property
    def brent_speedup(self) -> float:
        """Work-span predicted speedup ``T1 / Tp``."""
        return self.t1_s / self._brent_time_s if self._brent_time_s > 0 else float("inf")

    @property
    def bound_speedup(self) -> float:
        """Hard ceiling ``min(N, T1 / T_inf)``."""
        if self.t_inf_s <= 0:
            return float(self.workers)
        return min(float(self.workers), self.t1_s / self.t_inf_s)

    @property
    def model_speedup_vs_self(self) -> float:
        """Predicted speedup of the measured run over its own ``T1``
        (how much faster than single-lane this execution ran)."""
        return self.t1_s / self.measured_s if self.measured_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "measured_s": round(self.measured_s, 6),
            "serial_s": round(self.serial_s, 6),
            "t1_s": round(self.t1_s, 6),
            "t_inf_s": round(self.t_inf_s, 6),
            "parallel_fraction": round(self.parallel_fraction, 4),
            "amdahl_speedup": round(self.amdahl_speedup, 4),
            "brent_time_s": round(self.brent_time_s, 6),
            "brent_speedup": round(self.brent_speedup, 4),
            "bound_speedup": round(self.bound_speedup, 4),
        }


def speedup_model(trace: Trace, workers: int) -> SpeedupModel:
    """Build the :class:`SpeedupModel` for one traced run."""
    stats = stage_stats(trace)
    serial_s = sum(s.duration_s for s in stats if not s.parallel)
    t1 = serial_s + sum(s.work_s for s in stats if s.parallel)
    t_inf = serial_s + sum(s.max_unit_s for s in stats if s.parallel)
    brent = serial_s + sum(
        s.work_s / max(1, workers) + s.max_unit_s for s in stats if s.parallel
    )
    model = SpeedupModel(
        workers=workers,
        measured_s=sum(s.duration_s for s in stats),
        serial_s=serial_s,
        t1_s=t1,
        t_inf_s=t_inf,
    )
    model._brent_time_s = brent
    return model


# -- the bottleneck report -------------------------------------------------


def explain(
    trace: Trace,
    workers: int,
    *,
    profile: Any = None,
    top: int = 3,
) -> dict[str, Any]:
    """The bottleneck report for one traced (optionally profiled) run.

    Per stage: wall-clock, critical-path share, parallel efficiency and
    lanes, plus the profile's hottest frames for that stage when a
    :class:`~repro.observability.profiling.Profile` is given.
    """
    segments = critical_path(trace)
    total = critical_path_length(segments)
    shares = stage_shares(segments)
    stages = []
    for s in stage_stats(trace):
        entry: dict[str, Any] = {
            "stage": s.name,
            "duration_s": round(s.duration_s, 6),
            "critical_path_s": round(shares.get(s.name, 0.0), 6),
            "critical_path_share": round(shares.get(s.name, 0.0) / total, 4)
            if total > 0
            else 0.0,
            "efficiency": round(s.efficiency, 4),
            "lanes": s.lanes,
            "units": s.units,
            "work_s": round(s.work_s, 6),
            "max_unit_s": round(s.max_unit_s, 6),
            "parallel": s.parallel,
        }
        if profile is not None:
            entry["top_frames"] = [
                {"frame": frame, "seconds": round(seconds, 4), "samples": count}
                for frame, seconds, count in profile.top_frames(top, stage=s.name)
            ]
        stages.append(entry)
    outside = shares.get(OUTSIDE_STAGES, 0.0)
    report: dict[str, Any] = {
        "critical_path_s": round(total, 6),
        "orchestration_s": round(outside, 6),
        "orchestration_share": round(outside / total, 4) if total > 0 else 0.0,
        "stages": stages,
        "model": speedup_model(trace, workers).to_dict(),
    }
    if profile is not None:
        report["profile"] = {
            "samples": profile.total_samples,
            "attributed_fraction": round(profile.attributed_fraction(), 4),
        }
    return report


def render_explain(report: dict[str, Any], *, measured_speedup: float | None = None) -> str:
    """Human-readable form of one :func:`explain` report."""
    lines: list[str] = []
    total = report["critical_path_s"]
    model = report["model"]
    lines.append(
        f"critical path: {total:.3f} s over {model['workers']} workers "
        f"(orchestration outside stages: {report['orchestration_share']:.0%})"
    )
    for entry in sorted(
        report["stages"], key=lambda e: -e["critical_path_s"]
    ):
        frames = entry.get("top_frames") or []
        frame_text = (
            "  top frames: "
            + ", ".join(f"{f['frame']} ({f['seconds']:.2f}s)" for f in frames)
            if frames
            else ""
        )
        kind = (
            f"efficiency {entry['efficiency']:.2f} over {entry['lanes']} lane(s)"
            if entry["parallel"]
            else "serial"
        )
        lines.append(
            f"stage {entry['stage']}: {entry['critical_path_share']:.0%} of "
            f"critical path ({entry['critical_path_s']:.3f} s), {kind}"
            + frame_text
        )
    lines.append(
        f"model: T1={model['t1_s']:.3f} s, T_inf={model['t_inf_s']:.3f} s, "
        f"parallel fraction {model['parallel_fraction']:.1%}"
    )
    predicted = (
        f"predicted speedup: Amdahl {model['amdahl_speedup']:.2f}x, "
        f"work-span {model['brent_speedup']:.2f}x, "
        f"bound {model['bound_speedup']:.2f}x"
    )
    if measured_speedup is not None:
        predicted += f"; measured {measured_speedup:.2f}x"
    lines.append(predicted)
    prof = report.get("profile")
    if prof:
        lines.append(
            f"profile: {prof['samples']} samples, "
            f"{prof['attributed_fraction']:.1%} span-attributed"
        )
    return "\n".join(lines)
