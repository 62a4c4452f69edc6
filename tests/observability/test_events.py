"""Tests for the live run event bus (``repro.observability.events``).

Covers the ISSUE's acceptance points: round-trip through a real
pipeline run on the thread AND process backends, deterministic shard
merging, schema validation, and the tracer-mirroring bar (>= 95% of
the tracer's stage/task transitions must surface as events).
"""

import json
import threading

import pytest

from repro.bench.harness import small_response_config
from repro.bench.workloads import materialize, scaled_workload
from repro.core.context import ParallelSettings, RunContext
from repro.core.recording import RunHandle, bound
from repro.engine.policy import pipeline_factory
from repro.observability.events import (
    EVENTS_DIR,
    SCHEMA,
    channel,
    clear_events,
    emit,
    emit_channel,
    enable_events,
    is_active,
    read_events,
    read_events_file,
    release_events,
    validate_events,
    write_events,
)
from repro.observability.tracer import Tracer
from repro.synth.events import paper_event


def _run_with_events(tmp_path, backend, *, tracer=False):
    event = paper_event("EV-NOV18")
    workload = scaled_workload(event, 0.02)
    ctx = RunContext.for_directory(
        tmp_path / f"ws-{backend}",
        parallel=ParallelSettings(backend, num_workers=2),
        response_config=small_response_config(n_periods=20),
    )
    ctx.events = True
    if tracer:
        ctx.tracer = Tracer()
    materialize(event, workload, ctx.workspace.input_dir)
    result = pipeline_factory("dag-parallel")().run(ctx)
    return ctx, result, read_events(ctx.workspace.root)


@pytest.mark.slow
class TestPipelineRoundTrip:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stream_validates_and_covers_lifecycle(self, tmp_path, backend):
        _ctx, result, events = _run_with_events(tmp_path, backend)
        assert validate_events(events) == []
        types = [e["type"] for e in events]
        assert types[0] == "run_started"
        assert events[0]["schema"] == SCHEMA
        assert types[-1] == "run_finished"
        assert events[-1]["status"] == "ok"
        assert events[-1]["total_s"] == pytest.approx(result.total_s, rel=0.5)
        assert "plan" in types
        assert types.count("stage_started") == types.count("stage_finished")
        assert "units_total" in types and "unit_finished" in types

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_merge_is_deterministic(self, tmp_path, backend):
        ctx, _result, events = _run_with_events(tmp_path, backend)
        again = read_events(ctx.workspace.root)
        assert events == again

    def test_progress_accounts_for_planned_units(self, tmp_path):
        _ctx, _result, events = _run_with_events(tmp_path, "thread")
        planned = sum(
            e["total"] for e in events if e["type"] == "units_total"
        )
        done = sum(e["count"] for e in events if e["type"] == "unit_finished")
        assert planned > 0
        # No retries in a clean run: done must match the plan exactly.
        assert done == planned

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_tracer_transitions_mirrored(self, tmp_path, backend):
        ctx, result, events = _run_with_events(tmp_path, backend, tracer=True)
        trace = result.trace
        assert trace is not None
        stage_spans = {s.name for s in trace.spans if s.kind == "stage"}
        stage_events = {
            e["stage"] for e in events if e["type"] == "stage_finished"
        }
        assert stage_spans <= stage_events

        work_spans = [s for s in trace.spans if s.kind in ("chunk", "task")]
        work_events = [
            e for e in events if e["type"] in ("unit_finished", "task_finished")
        ]
        assert len(work_events) >= 0.95 * len(work_spans)

    def test_log_survives_run_for_posthoc_readers(self, tmp_path):
        ctx, _result, events = _run_with_events(tmp_path, "thread")
        log_dir = ctx.workspace.root / EVENTS_DIR
        assert log_dir.is_dir()
        assert list(log_dir.glob("events-*.jsonl"))
        assert events  # still readable after release_events


def _logging(root):
    """Bind an event-logging run handle for ``root``."""
    return bound(RunHandle(str(root), events=True))


class TestShardMerging:
    def test_multi_writer_total_order(self, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        enable_events(root)
        with _logging(root):
            emit(root, "run_started", schema=SCHEMA, implementation="x",
                 workspace=str(root), workers=4)

        def worker(n):
            # A thread starts with no handle: it binds its own.
            with _logging(root):
                for i in range(20):
                    emit(root, "unit_finished", span=f"w{n}", count=1,
                         duration_s=0.001, worker=f"w{n}")

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        release_events(root)
        events = read_events(root)
        assert len(events) == 81
        assert validate_events(events) == []
        keys = [(e["t"], e["pid"], e["tid"], e["seq"]) for e in events]
        assert keys == sorted(keys)
        assert events == read_events(root)

    def test_seq_stays_monotonic_across_release(self, tmp_path):
        # The batch layer emits its summary after the runner released
        # the log; the reopened shard must not restart its counter.
        root = tmp_path / "ws"
        root.mkdir()
        enable_events(root)
        with _logging(root):
            emit(root, "run_started", schema=SCHEMA, implementation="x",
                 workspace=str(root), workers=1)
            release_events(root)
            emit(root, "batch_event_finished", event_id="EV", status="ok")
        events = read_events(root)
        assert validate_events(events) == []
        clear_events(root)
        assert read_events(root) == []

    def test_partial_trailing_line_is_tolerated(self, tmp_path):
        root = tmp_path / "ws"
        (root / EVENTS_DIR).mkdir(parents=True)
        shard = root / EVENTS_DIR / "events-1-1.jsonl"
        good = json.dumps({"type": "run_started", "t": 1.0, "pid": 1,
                           "tid": 1, "seq": 1, "schema": SCHEMA,
                           "implementation": "x", "workspace": "w",
                           "workers": 1})
        shard.write_text(good + "\n" + '{"type": "unit_fin')
        events = read_events(root)
        assert len(events) == 1

    def test_emit_is_noop_without_marker(self, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        emit(root, "run_started", schema=SCHEMA, implementation="x",
             workspace=str(root), workers=1)
        assert read_events(root) == []
        emit_channel(None, "unit_finished")  # disabled channel: no-op

    def test_log_directory_alone_switches_nothing_on(self, tmp_path):
        # A finished run's .events/ is an output: without a bound
        # handle nothing is emitted into it.
        root = tmp_path / "ws"
        root.mkdir()
        enable_events(root)
        assert not is_active(root)
        assert channel("span") is None
        emit(root, "run_started", schema=SCHEMA, implementation="x",
             workspace=str(root), workers=1)
        assert read_events(root) == []
        with _logging(root):
            assert is_active(root)
            assert not is_active(tmp_path / "other")
            assert channel("span") == (str(root), None, "span")
        with bound(RunHandle(str(root), audit=True)):
            assert not is_active(root)


class TestValidation:
    def _stream(self):
        return [
            {"type": "run_started", "t": 1.0, "pid": 1, "tid": 1, "seq": 1,
             "schema": SCHEMA, "implementation": "x", "workspace": "w",
             "workers": 2},
            {"type": "stage_started", "t": 2.0, "pid": 1, "tid": 1, "seq": 2,
             "stage": "G1"},
            {"type": "run_finished", "t": 3.0, "pid": 1, "tid": 1, "seq": 3,
             "total_s": 2.0, "status": "ok"},
        ]

    def test_clean_stream_passes(self):
        assert validate_events(self._stream()) == []

    def test_empty_stream_flagged(self):
        assert validate_events([]) == ["empty event stream"]

    def test_must_open_with_run_started(self):
        events = self._stream()[1:]
        assert any("run_started" in p for p in validate_events(events))

    def test_unknown_schema_flagged(self):
        events = self._stream()
        events[0]["schema"] = "repro-events/99"
        assert any("unknown schema" in p for p in validate_events(events))

    def test_missing_required_field_flagged(self):
        events = self._stream()
        del events[1]["stage"]
        assert any("missing field 'stage'" in p for p in validate_events(events))

    def test_unknown_type_flagged(self):
        events = self._stream()
        events[1]["type"] = "mystery"
        assert any("unknown type" in p for p in validate_events(events))

    def test_non_monotonic_seq_flagged(self):
        events = self._stream()
        events[2]["seq"] = 1
        assert any("not increasing" in p for p in validate_events(events))


class TestFixtureRoundTrip:
    def test_write_then_read(self, tmp_path):
        events = [
            {"type": "run_started", "t": 1.0, "pid": 1, "tid": 1, "seq": 1,
             "schema": SCHEMA, "implementation": "x", "workspace": "w",
             "workers": 2},
            {"type": "run_finished", "t": 2.0, "pid": 1, "tid": 1, "seq": 2,
             "total_s": 1.0, "status": "ok"},
        ]
        path = tmp_path / "events.jsonl"
        write_events(path, events)
        assert read_events_file(path) == events

    @pytest.mark.parametrize("tail", [b'{"type": "run_fin', b'{"type": "\xc3', b"\xff\xfe"])
    def test_torn_last_line_is_skipped(self, tmp_path, tail):
        events = [{"type": "run_started", "seq": 1}, {"type": "stage_started", "seq": 2}]
        path = tmp_path / "events.jsonl"
        write_events(path, events)
        with open(path, "ab") as fh:
            fh.write(tail)
        assert read_events_file(path) == events

    @pytest.mark.parametrize("bad", [b'{"type": "run_fin\n', b'{"type": "\xc3"}\n'])
    def test_bad_middle_line_raises(self, tmp_path, bad):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"seq": 1}\n' + bad + b'{"seq": 3}\n')
        with pytest.raises(ValueError):
            read_events_file(path)
