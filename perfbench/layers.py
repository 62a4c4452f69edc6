"""Per-layer numbers from the traced passes.

Two views of one traced pass:

- **self time** per layer: each span's duration minus its same-thread
  children, summed over every thread and process.  This is busy time;
  on the parallel workloads it adds up to more than the pass.
- **wall accounting**: the pass's wall clock split between layers.  At
  each instant every thread is in its innermost open span, and the
  instant is shared equally between the threads doing work.  A driver
  thread inside ``parallel_for`` or a ``TaskGroup`` only waits while a
  worker works, so it takes no share then; when no worker works (pool
  start, pickling, result collection) the waiting span takes the time.
  The layers' shares plus ``untraced`` (pass time outside every layer
  span) sum to the traced pass time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from perfbench.tracing import ATTRS, END, LAYER, NAME, PARENT, START, WAITING

#: Columns of the stage x layer table.
COLUMNS = (
    "formats", "dsp", "spectra", "plotting", "processes", "engine",
    "parallel", "tempfolders", "observability", "bulletin", "untraced",
)
_HEADINGS = (
    "formats", "dsp", "spectra", "plotting", "process", "engine",
    "parallel", "tempfold", "observ", "bulletin", "untraced",
)
#: Stage label of time outside every barrier region.
OUTSIDE = "(none)"
FIG9_STAGES = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI")
DAG_STAGES = tuple(f"G{i}" for i in range(1, 9))

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("pass_s", "s", "lower"),
    ("points_per_s", "points/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("formats.read_s", "s", "lower"),
    ("formats.write_s", "s", "lower"),
    ("formats.read_calls", "count", "lower"),
    ("formats.write_calls", "count", "lower"),
    ("formats.bytes_read", "bytes", "lower"),
    ("formats.bytes_written", "bytes", "lower"),
    ("dsp.self_s", "s", "lower"),
    ("dsp.calls", "count", "lower"),
    ("dsp.points", "points", "lower"),
    ("spectra.response_s", "s", "lower"),
    ("spectra.fourier_s", "s", "lower"),
    ("spectra.inflection_s", "s", "lower"),
    ("spectra.oscillator_steps", "steps", "lower"),
    ("plotting.self_s", "s", "lower"),
    ("plotting.calls", "count", "lower"),
    *((f"processes.P{pid:02d}_s", "s", "lower") for pid in range(20)),
    ("processes.glue_s", "s", "lower"),
    ("engine.plan_s", "s", "lower"),
    ("engine.dispatch_s", "s", "lower"),
    ("engine.barrier_idle_s", "s", "lower"),
    *((f"engine.stage_s.{stage}", "s", "lower") for stage in FIG9_STAGES + DAG_STAGES),
    ("parallel.loop_calls", "count", "lower"),
    ("parallel.chunks", "count", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.pool_start_s", "s", "lower"),
    ("parallel.wall_s", "s", "lower"),
    ("parallel.cpu_s", "s", "lower"),
    ("parallel.utilization", "ratio", "higher"),
    ("tempfolders.calls", "count", "lower"),
    ("tempfolders.s", "s", "lower"),
    ("tempfolders.bytes_staged", "bytes", "lower"),
    ("observability.emit_calls", "count", "lower"),
    ("observability.emit_s", "s", "lower"),
    ("observability.metrics_s", "s", "lower"),
    ("observability.audit_calls", "count", "lower"),
    ("observability.audit_s", "s", "lower"),
    ("observability.dormant_calls", "count", "lower"),
    ("bulletin.verify_s", "s", "lower"),
    ("bulletin.summarize_s", "s", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Per-layer metrics that must repeat exactly on the same inputs.
COUNT_METRICS = tuple(
    name for name, unit, _ in PER_LAYER if unit in ("count", "bytes", "points", "steps")
)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus its (same-thread) children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [max(0.0, s[END] - s[START] - c) for s, c in zip(spans, child)]


def outermost(spans: list) -> list[bool]:
    """Whether each span has no ancestor of its own layer."""
    out = []
    for span in spans:
        parent, layer = span[PARENT], span[LAYER]
        while parent >= 0 and spans[parent][LAYER] != layer:
            parent = spans[parent][PARENT]
        out.append(parent < 0)
    return out


def layer_metrics(lanes: list, driver_pid: int) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass."""
    m: dict[str, float] = defaultdict(float)
    for lane in lanes:
        spans = lane.spans
        driver = lane.pid == driver_pid
        for span, own, top in zip(spans, self_times(spans), outermost(spans)):
            layer, name = span[LAYER], span[NAME]
            attrs = span[ATTRS] or {}
            if layer == "formats":
                m[f"formats.{name}_s"] += own
                if top:
                    m[f"formats.{name}_calls"] += 1
                    key = "formats.bytes_read" if name == "read" else "formats.bytes_written"
                    m[key] += attrs.get("bytes", 0)
            elif layer == "dsp":
                m["dsp.self_s"] += own
                if top:
                    m["dsp.calls"] += 1
                    m["dsp.points"] += attrs.get("points", 0)
            elif layer == "spectra":
                m[f"spectra.{name}_s"] += own
                if top and name == "response":
                    m["spectra.oscillator_steps"] += attrs.get("steps", 0)
            elif layer == "plotting":
                m["plotting.self_s"] += own
                if top:
                    m["plotting.calls"] += 1
            elif layer == "processes":
                m["processes.glue_s"] += own
            elif layer == "engine":
                m["engine.plan_s" if name == "plan" else "engine.dispatch_s"] += own
            elif layer == "parallel":
                if name == "pool":
                    m["parallel.pool_start_s"] += own
                elif name == "parallel_for":
                    m["parallel.loop_calls"] += 1
                    m["parallel.chunks"] += attrs.get("chunks", 0)
                if driver and top and (layer, name) in WAITING:
                    m["parallel.wall_s"] += span[END] - span[START]
            elif layer == "tempfolders":
                m["tempfolders.s"] += own
                if top:
                    m["tempfolders.calls"] += 1
                    m["tempfolders.bytes_staged"] += attrs.get("bytes", 0)
            elif layer == "observability":
                live = attrs.get("state") == "live"
                if name in ("emit", "emit_channel"):
                    m["observability.emit_s"] += own
                if name == "emit" and live:
                    m["observability.emit_calls"] += 1
                if name == "metrics":
                    m["observability.metrics_s"] += own
                if name == "audit":
                    m["observability.audit_s"] += own
                    if live:
                        m["observability.audit_calls"] += 1
                if attrs.get("state") == "dormant":
                    m["observability.dormant_calls"] += 1
            elif layer == "bulletin" and name in ("verify", "summarize"):
                m[f"bulletin.{name}_s"] += own
        m["parallel.tasks"] += lane.counts.get("parallel.tasks", 0)
        m["observability.dormant_calls"] += lane.counts.get("hook.dormant", 0)
    return dict(m)


def pass_window(lanes: list, driver_pid: int) -> tuple[float, float]:
    """(start, end) of the pass's root span."""
    for lane in lanes:
        if lane.pid == driver_pid:
            for span in lane.spans:
                if span[LAYER] == "pass":
                    return span[START], span[END]
    raise ValueError("traced pass has no pass span")


def _segments(spans: list, lo: float, hi: float) -> list[tuple[float, float, int]]:
    """(start, end, span index) of the innermost open span, in time order."""
    segments: list[tuple[float, float, int]] = []

    def add(a: float, b: float, index: int) -> None:
        a, b = max(a, lo), min(b, hi)
        if b > a:
            segments.append((a, b, index))

    stack: list[int] = []
    cursor = 0.0
    for index, span in enumerate(spans):  # open order is start order
        start = span[START]
        while stack and spans[stack[-1]][END] <= start:
            top = stack.pop()
            add(cursor, spans[top][END], top)
            cursor = spans[top][END]
        if stack:
            add(cursor, start, stack[-1])
        stack.append(index)
        cursor = start
    while stack:
        top = stack.pop()
        add(cursor, spans[top][END], top)
        cursor = spans[top][END]
    return segments


@dataclass
class Accounting:
    """A traced pass's wall clock by (stage, layer)."""

    cells: dict          # (stage, column) -> seconds
    stage_wall: dict     # stage -> seconds inside that stage
    stage_busy: dict     # stage -> thread-seconds of work
    total: float         # pass wall clock

    def barrier_idle(self, strategies: dict, workers: int) -> float:
        """Sum over stages of stage wall x workers minus busy time; a
        ``seq`` region has one worker."""
        idle = 0.0
        for stage, wall in self.stage_wall.items():
            if stage == OUTSIDE:
                continue
            width = 1 if strategies.get(stage, "seq") == "seq" else workers
            idle += max(0.0, width * wall - self.stage_busy.get(stage, 0.0))
        return idle


def account(lanes: list, driver_pid: int) -> Accounting:
    """Split one traced pass's wall clock between stages and layers."""
    lo, hi = pass_window(lanes, driver_pid)
    lanes = [lane for lane in lanes if lane.spans]
    segments = [_segments(lane.spans, lo, hi) for lane in lanes]
    stages = sorted(
        (span[START], span[END], (span[ATTRS] or {}).get("stage", "?"))
        for lane in lanes if lane.pid == driver_pid
        for span in lane.spans if span[LAYER] == "engine" and span[NAME] == "stage"
    )
    bounds = sorted({
        lo, hi,
        *(x for segs in segments for a, b, _ in segs for x in (a, b)),
        *(x for a, b, _ in stages for x in (a, b) if lo < x < hi),
    })
    pointers = [0] * len(lanes)
    stage_at = 0
    cells: dict = defaultdict(float)
    stage_wall: dict = defaultdict(float)
    stage_busy: dict = defaultdict(float)
    for x, y in zip(bounds, bounds[1:]):
        dt = y - x
        if dt <= 0:
            continue
        while stage_at < len(stages) and stages[stage_at][1] <= x:
            stage_at += 1
        stage = (
            stages[stage_at][2]
            if stage_at < len(stages) and stages[stage_at][0] <= x else OUTSIDE
        )
        working, waiting = [], []
        for k, segs in enumerate(segments):
            p = pointers[k]
            while p < len(segs) and segs[p][1] <= x:
                p += 1
            pointers[k] = p
            if p < len(segs) and segs[p][0] <= x:
                span = lanes[k].spans[segs[p][2]]
                if lanes[k].pid == driver_pid and (span[LAYER], span[NAME]) in WAITING:
                    waiting.append(span)
                else:
                    working.append(span)
        counted = working or waiting
        stage_wall[stage] += dt
        stage_busy[stage] += dt * max(1, len(working))
        if not counted:
            cells[(stage, "untraced")] += dt
            continue
        share = dt / len(counted)
        for span in counted:
            column = span[LAYER] if span[LAYER] in COLUMNS else "untraced"
            cells[(stage, column)] += share
    return Accounting(dict(cells), dict(stage_wall), dict(stage_busy), hi - lo)


def fig9_stage(label: str) -> str:
    """Fig. 9 stage of a region label (``P16`` -> ``IX``); others unchanged."""
    if label.startswith("P") and label[1:].isdigit():
        from repro.core.stages import stage_of_process
        from repro.errors import PipelineError

        try:
            return stage_of_process(int(label[1:])).name
        except PipelineError:
            return label
    return label


def by_fig9(cells: dict) -> dict:
    """Cells with every region label mapped to its Fig. 9 stage."""
    merged: dict = defaultdict(float)
    for (stage, column), seconds in cells.items():
        merged[(fig9_stage(stage), column)] += seconds
    return dict(merged)


def result_metrics(results: list) -> dict[str, float]:
    """Per-process and per-stage times a pass's ``PipelineResult``s report."""
    m = {f"processes.P{pid:02d}_s": 0.0 for pid in range(20)}
    m.update({f"engine.stage_s.{s}": 0.0 for s in FIG9_STAGES + DAG_STAGES})
    for result in results:
        for timing in result.processes:
            key = f"processes.P{timing.pid:02d}_s"
            if key in m:
                m[key] += timing.duration_s
        for label, seconds in result.stage_durations.items():
            key = f"engine.stage_s.{fig9_stage(label)}"
            if key in m:
                m[key] += seconds
    return m


def _stage_order(stages) -> list[str]:
    known = [s for s in FIG9_STAGES + DAG_STAGES if s in stages]
    rest = sorted(s for s in stages if s not in known and s != OUTSIDE)
    return known + rest + ([OUTSIDE] if OUTSIDE in stages else [])


def render_table(cells: dict, title: str) -> list[str]:
    """The stage x layer table (seconds), with row and column totals."""
    stages = _stage_order({stage for stage, _ in cells})
    head = f"{'stage':<10}" + "".join(f"{h:>10}" for h in _HEADINGS) + f"{'total':>10}"
    lines = [title, head]
    totals = dict.fromkeys(COLUMNS, 0.0)
    for stage in stages:
        row = [cells.get((stage, column), 0.0) for column in COLUMNS]
        for column, value in zip(COLUMNS, row):
            totals[column] += value
        lines.append(
            f"{stage:<10}" + "".join(f"{v:>10.4f}" for v in row) + f"{sum(row):>10.4f}"
        )
    lines.append(
        f"{'total':<10}" + "".join(f"{totals[c]:>10.4f}" for c in COLUMNS)
        + f"{sum(totals.values()):>10.4f}"
    )
    return lines


def render_diff(base: dict, other: dict, title: str) -> list[str]:
    """``other`` minus ``base``, cell by cell, in the table's layout."""
    keys = set(base) | set(other)
    return render_table({key: other.get(key, 0.0) - base.get(key, 0.0) for key in keys}, title)
