"""Tests for the ``repro-top`` monitor view and renderer.

The view and renderer are pure (event list in, state/text out), so the
tests drive them from synthetic recorded streams — including a
mid-run truncation to exercise progress bars and the ETA.
"""

import pytest

from repro.observability.events import SCHEMA
from repro.observability.top import RunView, WorkerLane, render_top


def _stream(*, finished=True, with_retry=False):
    """A synthetic two-stage run: G1 serial tasks, G2 parallel units."""
    events = [
        {"type": "run_started", "t": 10.0, "pid": 1, "tid": 1, "seq": 1,
         "schema": SCHEMA, "implementation": "dag-parallel",
         "workspace": "/ws", "workers": 2, "backend": "thread"},
        {"type": "plan", "t": 10.01, "pid": 1, "tid": 1, "seq": 2,
         "policy": "dag-parallel", "regions": [
             {"label": "G1", "strategy": "custom", "tasks": ["p00"]},
             {"label": "G2", "strategy": "parallel-for",
              "tasks": ["p02", "p03"]},
         ]},
        {"type": "stage_started", "t": 10.02, "pid": 1, "tid": 1, "seq": 3,
         "stage": "G1"},
        {"type": "task_finished", "t": 10.10, "pid": 1, "tid": 2, "seq": 1,
         "stage": "G1", "span": "p00", "duration_s": 0.08, "worker": "1:T1"},
        {"type": "stage_finished", "t": 10.12, "pid": 1, "tid": 1, "seq": 4,
         "stage": "G1", "duration_s": 0.1},
        {"type": "stage_started", "t": 10.12, "pid": 1, "tid": 1, "seq": 5,
         "stage": "G2"},
        {"type": "units_total", "t": 10.13, "pid": 1, "tid": 1, "seq": 6,
         "stage": "G2", "span": "p02", "total": 10, "chunks": 5,
         "backend": "thread"},
        {"type": "heartbeat", "t": 10.2, "pid": 1, "tid": 3, "seq": 1,
         "rss_bytes": 64 * 1024 * 1024, "threads": 5, "utilization": 0.5},
        {"type": "unit_finished", "t": 10.3, "pid": 1, "tid": 2, "seq": 2,
         "stage": "G2", "span": "p02", "count": 2, "duration_s": 0.2,
         "worker": "1:T1"},
        {"type": "unit_finished", "t": 10.3, "pid": 1, "tid": 4, "seq": 1,
         "stage": "G2", "span": "p02", "count": 2, "duration_s": 0.2,
         "worker": "1:T2"},
    ]
    if with_retry:
        events += [
            {"type": "fault", "t": 10.31, "pid": 1, "tid": 2, "seq": 3,
             "kind": "transient", "process": "p02"},
            {"type": "retry", "t": 10.32, "pid": 1, "tid": 2, "seq": 4,
             "process": "p02", "attempt": 1},
            {"type": "quarantine", "t": 10.33, "pid": 1, "tid": 1, "seq": 7,
             "record": "STA01", "process": "p02"},
        ]
    if finished:
        events += [
            {"type": "unit_finished", "t": 10.5, "pid": 1, "tid": 2, "seq": 5,
             "stage": "G2", "span": "p02", "count": 6, "duration_s": 0.55,
             "worker": "1:T1"},
            {"type": "stage_finished", "t": 10.6, "pid": 1, "tid": 1, "seq": 8,
             "stage": "G2", "duration_s": 0.48},
            {"type": "run_finished", "t": 10.61, "pid": 1, "tid": 1, "seq": 9,
             "total_s": 0.61, "status": "ok"},
        ]
    return events


class TestRunView:
    def test_finished_run_folds_completely(self):
        view = RunView.from_events(_stream())
        assert view.status == "ok"
        assert view.implementation == "dag-parallel"
        assert view.policy == "dag-parallel"
        assert view.workers == 2
        assert view.backend == "thread"
        assert view.total_s == pytest.approx(0.61)
        assert [s.name for s in view.stages] == ["G1", "G2"]
        g1, g2 = view.stages
        assert g1.status == "done" and g1.tasks == 1 and g1.tasks_done == 1
        assert g2.status == "done"
        assert g2.units_total == 10 and g2.units_done == 10
        assert g2.fraction == 1.0
        assert view.eta_s() == 0.0

    def test_partial_run_reports_progress_and_eta(self):
        view = RunView.from_events(_stream(finished=False))
        assert view.status == "running"
        g2 = view.stages[1]
        assert g2.status == "running"
        assert g2.units_done == 4 and g2.units_total == 10
        assert g2.fraction == pytest.approx(0.4)
        eta = view.eta_s()
        # 6 units left at 0.1 s each over 2 lanes, plus one trailing
        # unit (Brent bound): 6*0.1/2 + 0.1 = 0.4 s.
        assert eta == pytest.approx(0.4, rel=0.05)

    def test_eta_unknown_before_any_stage_completes(self):
        events = _stream(finished=False)
        # Drop G1's completion: a pending stage with no completed stage
        # to extrapolate from must yield "unknown", not a guess.
        events = [e for e in events if e["type"] != "stage_finished"]
        events[1]["regions"] = events[1]["regions"] + [
            {"label": "G3", "strategy": "parallel-for", "tasks": ["p05"]}
        ]
        view = RunView.from_events(events)
        assert view.eta_s() is None

    def test_retry_counters_and_quarantine(self):
        view = RunView.from_events(_stream(with_retry=True))
        assert view.retries == 1
        assert view.faults == 1
        assert view.quarantined == ["STA01"]

    def test_progress_clamped_at_plan_total(self):
        # A retried unit is counted twice by the shards; the view must
        # clamp at units_total so progress never reads past 100%.
        events = _stream(finished=False)
        events.append(
            {"type": "unit_finished", "t": 10.4, "pid": 1, "tid": 2, "seq": 5,
             "stage": "G2", "span": "p02", "count": 9, "duration_s": 0.9,
             "worker": "1:T1"}
        )
        g2 = RunView.from_events(events).stages[1]
        assert g2._units_done == 13
        assert g2.units_done == 10
        assert g2.fraction == 1.0

    def test_worker_lanes_accumulate(self):
        view = RunView.from_events(_stream())
        assert set(view.lanes) == {"1:T1", "1:T2"}
        lane = view.lanes["1:T1"]
        assert isinstance(lane, WorkerLane)
        assert lane.busy_s == pytest.approx(0.08 + 0.2 + 0.55)
        assert lane.units == 9

    def test_heartbeat_latest_wins(self):
        view = RunView.from_events(_stream())
        assert view.heartbeat["rss_bytes"] == 64 * 1024 * 1024

    def test_empty_stream_is_waiting(self):
        view = RunView.from_events([])
        assert view.status == "waiting"
        assert view.eta_s() is None


class TestRenderTop:
    def test_finished_frame_contents(self):
        frame = render_top(RunView.from_events(_stream()))
        assert "dag-parallel" in frame
        assert "thread x2" in frame
        assert "status ok" in frame
        assert "G1" in frame and "G2" in frame
        assert "10/10" in frame
        assert "worker lanes" in frame
        assert "1:T1" in frame
        assert "retries 0" in frame
        assert "rss    64.0 MiB" in frame

    def test_running_frame_shows_bars_and_eta(self):
        frame = render_top(RunView.from_events(_stream(finished=False)))
        assert "status running" in frame
        assert "eta 0.4s" in frame
        assert "4/10" in frame
        assert "#" in frame and "-" in frame  # partially filled bar

    def test_degraded_counters_rendered(self):
        frame = render_top(RunView.from_events(_stream(with_retry=True)))
        assert "retries 1" in frame
        assert "quarantined 1" in frame
        assert "STA01" in frame

    def test_render_is_pure(self):
        view = RunView.from_events(_stream())
        assert render_top(view) == render_top(view)
