"""``repro-top``: a live terminal monitor for in-flight pipeline runs.

Point it at a workspace processed with events enabled
(``repro.run(..., events=True)`` / ``repro-process --events``) and it
tails the ``.events/`` shard logs while the run executes, rendering

- per-stage progress bars (units done / planned, from the
  ``units_total``/``unit_finished`` stream),
- worker lane utilization (busy seconds per worker lane),
- retry / fault / quarantine counters from the resilience runtime,
- the latest resource heartbeat (RSS, threads, CPU utilization), and
- an ETA for the remaining work, computed through the critpath
  :class:`~repro.observability.critpath.SpeedupModel` (Brent's bound
  applied to the unfinished units plus pending stages).

Everything is split in two layers so it can be tested offline: the pure
:class:`RunView` (folds a merged event list into monitor state) and the
pure :func:`render_top` (RunView -> text frame); ``main_top`` only adds
the tail-and-redraw loop.  ``--overhead-check`` reuses the interleaved
min-of-k method of ``repro-profile --overhead-check`` to prove event
emission stays under its wall-clock budget.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Relative wall-clock budget of live event emission (bare run vs
#: events-enabled run, min-of-k).  Tighter than the profiler's 10%:
#: emission is a line-buffered append per unit, not a sampler.
EVENTS_OVERHEAD_TOLERANCE = 0.05
#: Absolute floor (seconds) under which an overhead delta is scheduler
#: noise, mirroring ``repro-profile --overhead-check``.
OVERHEAD_FLOOR_S = 0.05


@dataclass
class StageView:
    """Monitor state of one planned stage."""

    name: str
    strategy: str = ""
    tasks: int = 0
    status: str = "pending"  # pending | running | done
    started_t: float | None = None
    duration_s: float | None = None
    units_total: int = 0
    _units_done: int = 0
    unit_work_s: float = 0.0
    units_seen: int = 0
    tasks_done: int = 0

    @property
    def units_done(self) -> int:
        """Completed units, clamped to the plan.

        A retried unit is counted twice by the shards (the failing
        attempt was genuinely executed, and so was its resubmission);
        the monitor view clamps so progress never reads past 100%.
        """
        if self.units_total > 0:
            return min(self._units_done, self.units_total)
        return self._units_done

    @property
    def avg_unit_s(self) -> float | None:
        if self.units_seen <= 0:
            return None
        return self.unit_work_s / self.units_seen

    @property
    def fraction(self) -> float:
        if self.status == "done":
            return 1.0
        if self.units_total > 0:
            return self.units_done / self.units_total
        return 0.0


@dataclass
class WorkerLane:
    """Accumulated busy time of one worker lane."""

    name: str
    busy_s: float = 0.0
    units: int = 0


@dataclass
class RunView:
    """Everything one frame of the monitor needs, folded from events."""

    implementation: str = "?"
    workspace: str = ""
    workers: int = 1
    backend: str = ""
    policy: str = ""
    status: str = "waiting"  # waiting | running | ok | degraded | failed
    started_t: float | None = None
    last_t: float | None = None
    total_s: float | None = None
    stages: list[StageView] = field(default_factory=list)
    lanes: dict[str, WorkerLane] = field(default_factory=dict)
    retries: int = 0
    faults: int = 0
    quarantined: list[str] = field(default_factory=list)
    heartbeat: dict | None = None
    batch_status: str | None = None

    def _stage(self, name: str | None) -> StageView:
        for stage in self.stages:
            if stage.name == name:
                return stage
        stage = StageView(name=name or "?")
        self.stages.append(stage)
        return stage

    @classmethod
    def from_events(cls, events: list[dict]) -> "RunView":
        """Fold a merged event list (see ``read_events``) into a view."""
        view = cls()
        for e in events:
            view.last_t = e["t"]
            kind = e["type"]
            if kind == "run_started":
                view.status = "running"
                view.started_t = e["t"]
                view.implementation = e.get("implementation", "?")
                view.workspace = e.get("workspace", "")
                view.workers = int(e.get("workers") or 1)
                view.backend = e.get("backend", "")
            elif kind == "plan":
                view.policy = e.get("policy", "")
                for region in e.get("regions", ()):
                    stage = view._stage(region.get("label"))
                    stage.strategy = region.get("strategy", "")
                    tasks = region.get("tasks") or 0
                    # The plan lists task names; older fixtures a count.
                    stage.tasks = len(tasks) if isinstance(tasks, list) else int(tasks)
            elif kind == "stage_started":
                stage = view._stage(e.get("stage"))
                stage.status = "running"
                stage.started_t = e["t"]
            elif kind == "stage_finished":
                stage = view._stage(e.get("stage"))
                stage.status = "done"
                stage.duration_s = float(e.get("duration_s") or 0.0)
            elif kind == "units_total":
                view._stage(e.get("stage")).units_total += int(e.get("total") or 0)
            elif kind == "unit_finished":
                stage = view._stage(e.get("stage"))
                count = int(e.get("count") or 1)
                stage._units_done += count
                stage.units_seen += count
                stage.unit_work_s += float(e.get("duration_s") or 0.0)
                view._lane(e.get("worker"), e.get("duration_s"), count)
            elif kind == "task_finished":
                stage = view._stage(e.get("stage"))
                stage.tasks_done += 1
                view._lane(e.get("worker"), e.get("duration_s"), 1)
            elif kind == "retry":
                view.retries += 1
            elif kind == "fault":
                view.faults += 1
            elif kind == "quarantine":
                view.quarantined.append(str(e.get("record")))
            elif kind == "heartbeat":
                view.heartbeat = e
            elif kind == "run_finished":
                view.status = e.get("status", "ok")
                view.total_s = float(e.get("total_s") or 0.0)
            elif kind == "batch_event_finished":
                view.batch_status = (
                    f"{e.get('event_id')}: {e.get('status')}"
                    + (f" ({e.get('quarantined')} quarantined)"
                       if e.get("quarantined") else "")
                )
        return view

    def _lane(self, worker: object, duration_s: object, units: int) -> None:
        name = str(worker or "?")
        lane = self.lanes.setdefault(name, WorkerLane(name=name))
        lane.busy_s += float(duration_s or 0.0)
        lane.units += units

    @property
    def elapsed_s(self) -> float:
        if self.total_s is not None:
            return self.total_s
        if self.started_t is None or self.last_t is None:
            return 0.0
        return max(0.0, self.last_t - self.started_t)

    def eta_s(self) -> float | None:
        """Estimated remaining seconds, via the critpath speedup model.

        The remaining work is assembled per stage — unfinished units of
        running stages at their observed mean unit cost, pending stages
        at the mean completed-stage duration — and run through
        :class:`~repro.observability.critpath.SpeedupModel`: pending
        stages count as the serial term, the unfinished units as
        parallel work, and Brent's bound ``T1/N + T_inf`` gives the
        time-to-finish at the run's worker count.
        """
        from repro.observability.critpath import SpeedupModel

        if self.status != "running":
            return 0.0 if self.status in ("ok", "degraded", "failed") else None
        done = [s.duration_s for s in self.stages
                if s.status == "done" and s.duration_s is not None]
        avg_units = [s.avg_unit_s for s in self.stages if s.avg_unit_s is not None]
        global_avg_unit = sum(avg_units) / len(avg_units) if avg_units else None

        rem_work = 0.0   # parallelizable seconds left (unfinished units)
        rem_span = 0.0   # longest single remaining unit per running stage
        for stage in self.stages:
            if stage.status != "running":
                continue
            avg = stage.avg_unit_s or global_avg_unit
            remaining_units = max(0, stage.units_total - stage.units_done)
            if avg is None or stage.units_total <= 0:
                continue
            rem_work += remaining_units * avg
            if remaining_units:
                rem_span += avg
        pending = [s for s in self.stages if s.status == "pending"]
        if pending and not done:
            return None  # nothing to extrapolate pending stages from yet
        serial_s = len(pending) * (sum(done) / len(done) if done else 0.0)

        if rem_work <= 0 and serial_s <= 0:
            return 0.0
        model = SpeedupModel(
            workers=max(1, self.workers),
            measured_s=self.elapsed_s,
            serial_s=serial_s,
            t1_s=serial_s + rem_work,
            t_inf_s=serial_s + rem_span,
        )
        model._brent_time_s = (
            serial_s + rem_work / max(1, self.workers) + rem_span
        )
        return model.brent_time_s


# -- rendering -----------------------------------------------------------


def _bar(fraction: float, width: int) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def _fmt_eta(eta: float | None) -> str:
    if eta is None:
        return "--"
    if eta >= 60:
        return f"{int(eta // 60)}m{int(eta % 60):02d}s"
    return f"{eta:.1f}s"


def render_top(view: RunView, *, width: int = 80) -> str:
    """One text frame of the monitor (pure: RunView -> str)."""
    lines: list[str] = []
    title = f"repro-top — {view.policy or view.implementation}"
    if view.backend:
        title += f" ({view.backend} x{view.workers})"
    lines.append(title)
    lines.append(
        f"status {view.status:<9} elapsed {view.elapsed_s:7.1f}s   "
        f"eta {_fmt_eta(view.eta_s())}"
    )
    if view.workspace:
        lines.append(f"workspace {view.workspace}")
    lines.append("")

    name_w = max((len(s.name) for s in view.stages), default=5)
    bar_w = max(10, min(40, width - name_w - 30))
    for stage in view.stages:
        marker = {"pending": " ", "running": ">", "done": "*"}[stage.status]
        if stage.units_total > 0:
            detail = f"{stage.units_done:>4}/{stage.units_total:<4} units"
        elif stage.tasks_done or stage.tasks:
            detail = f"{stage.tasks_done:>4}/{stage.tasks or '?':<4} tasks"
        else:
            detail = " " * 14
        dur = (
            f"{stage.duration_s:7.2f}s" if stage.duration_s is not None else " " * 8
        )
        lines.append(
            f"{marker} {stage.name:<{name_w}} [{_bar(stage.fraction, bar_w)}] "
            f"{detail} {dur}"
        )

    if view.lanes:
        lines.append("")
        lines.append("worker lanes")
        elapsed = max(view.elapsed_s, 1e-9)
        lane_w = max(len(name) for name in view.lanes)
        for name in sorted(view.lanes):
            lane = view.lanes[name]
            util = min(1.0, lane.busy_s / elapsed)
            lines.append(
                f"  {name:<{lane_w}} [{_bar(util, 20)}] "
                f"{lane.busy_s:7.2f}s busy  {lane.units:>4} units"
            )

    counters = (
        f"retries {view.retries}   faults {view.faults}   "
        f"quarantined {len(view.quarantined)}"
    )
    lines.append("")
    lines.append(counters)
    for record in view.quarantined[-3:]:
        lines.append(f"  quarantined: {record}")
    if view.heartbeat is not None:
        hb = view.heartbeat
        rss = float(hb.get("rss_bytes") or 0.0) / (1024 * 1024)
        extras = []
        if hb.get("threads") is not None:
            extras.append(f"{hb['threads']} threads")
        if hb.get("utilization") is not None:
            extras.append(f"{float(hb['utilization']):.0%} cpu")
        lines.append(
            f"heartbeat: rss {rss:7.1f} MiB" + ("  " + "  ".join(extras) if extras else "")
        )
    if view.batch_status:
        lines.append(f"batch: {view.batch_status}")
    return "\n".join(lines)


# -- CLI -----------------------------------------------------------------


def _overhead_check(args: argparse.Namespace) -> int:
    """Bare vs events-enabled runs, interleaved min-of-k.

    The same method ``repro-profile --overhead-check`` uses, applied to
    event emission with its tighter 5% budget.
    """
    import shutil
    import tempfile

    from repro.bench.harness import small_response_config
    from repro.bench.workloads import materialize, scaled_workload
    from repro.core import RunContext
    from repro.core.context import ParallelSettings
    from repro.engine import pipeline_factory
    from repro.synth.events import paper_event

    event = paper_event(args.event)
    workload = scaled_workload(event, args.scale)
    impl_cls = pipeline_factory(args.policy)

    def run_once(with_events: bool) -> float:
        base = Path(tempfile.mkdtemp(prefix="repro-top-overhead-"))
        try:
            ctx = RunContext.for_directory(
                base / "ws",
                response_config=small_response_config(n_periods=args.periods),
                parallel=ParallelSettings(args.backend, num_workers=args.workers),
            )
            ctx.events = with_events
            materialize(event, workload, ctx.workspace.input_dir)
            return impl_cls().run(ctx).total_s
        finally:
            shutil.rmtree(base, ignore_errors=True)

    # One untimed warmup pays the one-off costs (module imports, file
    # cache, allocator growth) that would otherwise land entirely on
    # whichever arm happens to run first.
    run_once(True)

    # Interleave the arms so drift (cache warmup, thermal) hits both.
    bare: list[float] = []
    live: list[float] = []
    for _ in range(max(1, args.repeats)):
        bare.append(run_once(False))
        live.append(run_once(True))
    base_s, live_s = min(bare), min(live)
    delta = live_s - base_s
    rel = delta / base_s if base_s > 0 else 0.0
    print(
        f"{args.policy} on {args.event} ({args.backend}, min of {len(bare)}):"
    )
    print(f"  bare          {base_s:.4f} s")
    print(f"  with events   {live_s:.4f} s")
    print(f"  overhead      {delta:+.4f} s ({rel:+.1%})")
    if rel > EVENTS_OVERHEAD_TOLERANCE and delta > OVERHEAD_FLOOR_S:
        print(
            f"FAIL: event emission overhead beyond "
            f"{EVENTS_OVERHEAD_TOLERANCE:.0%} (and above the "
            f"{OVERHEAD_FLOOR_S:g} s noise floor)",
            file=sys.stderr,
        )
        return 1
    print(f"OK: within {EVENTS_OVERHEAD_TOLERANCE:.0%} tolerance")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    from repro.parallel.backend import Backend

    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Live monitor for an event-logged pipeline run "
        "(run with repro-process --events or repro.run(..., events=True)).",
    )
    parser.add_argument(
        "workspace", nargs="?", default=".",
        help="workspace root whose .events/ log to tail",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5, help="refresh period in seconds"
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame from the current log and exit",
    )
    parser.add_argument(
        "--plain", action="store_true",
        help="append frames instead of redrawing in place (no ANSI codes)",
    )
    parser.add_argument("--width", type=int, default=80, help="frame width")
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="give up after this many seconds of following",
    )
    check = parser.add_argument_group("overhead check")
    check.add_argument(
        "--overhead-check", action="store_true",
        help="measure event-emission overhead (bare vs events-enabled, "
        "interleaved min-of-k) instead of monitoring; exit 1 beyond "
        f"{EVENTS_OVERHEAD_TOLERANCE:.0%}",
    )
    check.add_argument("--event", default="EV-NOV18", help="catalog event id")
    check.add_argument("--policy", default="dag-parallel", help="scheduling policy")
    check.add_argument(
        "--backend", default=Backend.THREAD.value,
        choices=[backend.value for backend in Backend],
    )
    check.add_argument("--workers", type=int, default=None)
    check.add_argument("--scale", type=float, default=0.05, help="dataset size scale")
    check.add_argument("--periods", type=int, default=30)
    check.add_argument("--repeats", type=int, default=5, help="repetitions per arm")
    return parser


def main_top(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-top``."""
    from repro.observability.events import read_events

    args = _build_parser().parse_args(argv)
    if args.overhead_check:
        return _overhead_check(args)

    root = Path(args.workspace)
    deadline = (
        time.monotonic() + args.timeout if args.timeout is not None else None
    )
    last_frame = ""
    while True:
        events = read_events(root)
        view = RunView.from_events(events)
        frame = render_top(view, width=args.width)
        if not events:
            frame = (
                f"repro-top — waiting for events under {root}/.events "
                "(is the run started with events enabled?)"
            )
        if args.once:
            print(frame)
            return 0
        if args.plain:
            if frame != last_frame:
                print(frame)
                print("-" * 40)
        else:
            # Clear screen + home, then the frame: a cheap full redraw.
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
        last_frame = frame
        if view.status in ("ok", "degraded", "failed"):
            print(f"run finished: {view.status}")
            return 0 if view.status != "failed" else 1
        if deadline is not None and time.monotonic() > deadline:
            print("repro-top: timeout while following", file=sys.stderr)
            return 2
        time.sleep(args.interval)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_top())
