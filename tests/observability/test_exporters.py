"""Exporter tests on a hand-built trace — fast, no pipeline."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.observability.export import (
    pipeline_result_view,
    to_chrome_trace,
    to_prometheus_text,
    to_simulation_result,
    trace_placements,
    write_chrome_trace,
)
from repro.observability.tracer import Tracer
from repro.plotting.gantt import plot_trace_gantt


@pytest.fixture()
def sample_trace():
    """run > implementation > two stages, with process/chunk leaves."""
    tracer = Tracer()
    with tracer.span("full-parallel @ ws", kind="run", implementation="full-parallel"):
        with tracer.span("full-parallel", kind="implementation"):
            with tracer.span("IX", kind="stage", strategy="loop") as stage9:
                time.sleep(0.002)
                tracer.record(
                    "response_trace[0:2]", kind="chunk", start_s=tracer.now(),
                    duration_s=0.001, worker="999:pool-0", parent=stage9, size=2,
                )
            with tracer.span("X", kind="stage", strategy="seq"):
                with tracer.span("P16 plot_spectra", kind="process", pid=16, stage="X"):
                    time.sleep(0.001)
    return tracer.trace()


class TestChromeTrace:
    def test_schema(self, sample_trace) -> None:
        doc = to_chrome_trace(sample_trace)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["epoch_unix_s"] == sample_trace.epoch
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) + len(complete) == len(events)
        # One thread_name metadata row per distinct worker.
        workers = {s.worker for s in sample_trace.spans}
        assert {e["args"]["name"] for e in meta} == workers
        assert len(complete) == len(sample_trace.spans)
        for event in complete:
            assert event["ph"] == "X"
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["cat"] in ("run", "implementation", "stage", "process", "chunk")
            assert "span_id" in event["args"]

    def test_timestamps_are_microseconds(self, sample_trace) -> None:
        doc = to_chrome_trace(sample_trace)
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        stage = next(s for s in sample_trace.spans if s.name == "IX")
        assert by_name["IX"]["ts"] == pytest.approx(stage.start_s * 1e6)
        assert by_name["IX"]["dur"] == pytest.approx(stage.duration_s * 1e6)

    def test_write_round_trips_as_json(self, sample_trace, tmp_path: Path) -> None:
        out = write_chrome_trace(tmp_path / "t.json", sample_trace)
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) > 0


class TestPrometheus:
    def test_gauges_present_and_parseable(self, sample_trace) -> None:
        text = to_prometheus_text(sample_trace)
        assert text.endswith("\n")
        for metric in (
            "repro_run_duration_seconds",
            "repro_stage_duration_seconds",
            "repro_span_count",
            "repro_stage_work_seconds_total",
            "repro_stage_work_spans",
        ):
            assert f"# TYPE {metric} gauge" in text
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_labels, value = line.rsplit(" ", 1)
            float(value)  # parseable sample
            assert "{" in name_labels and name_labels.endswith("}")

    def test_work_attributed_to_enclosing_stage(self, sample_trace) -> None:
        text = to_prometheus_text(sample_trace)
        # The chunk ran under stage IX even though it carries no stage
        # attribute of its own — attribution goes through parent links.
        assert 'repro_stage_work_spans{stage="IX"} 1.000000' in text

    def test_label_escaping(self) -> None:
        tracer = Tracer()
        with tracer.span('we"ird', kind="stage"):
            pass
        text = to_prometheus_text(tracer.trace())
        assert 'stage="we\\"ird"' in text

    def test_registry_types_survive_combined_export(self, sample_trace) -> None:
        # Regression guard: the trace-derived series are gauges, but a
        # registry appended to the same exposition must keep counter
        # and histogram families intact (never degrade to gauge).
        from repro.observability.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("io_total").inc(5)
        reg.histogram("chunk_seconds", buckets=(1.0,)).observe(0.5)
        text = to_prometheus_text(sample_trace, metrics=reg)
        assert "# TYPE repro_run_duration_seconds gauge" in text
        assert "# TYPE io_total counter" in text
        assert "# TYPE io_total gauge" not in text
        assert "# TYPE chunk_seconds histogram" in text
        assert 'chunk_seconds_bucket{le="+Inf"} 1' in text
        assert "chunk_seconds_sum 0.500000" in text
        assert "chunk_seconds_count 1" in text


class TestPlacements:
    def test_auto_granularity_picks_leaf_level(self, sample_trace) -> None:
        placements = trace_placements(sample_trace)
        # chunk level is present, so stage/process spans are not bars.
        assert {p.name for p in placements} == {"response_trace[0:2]"}
        assert placements[0].stage == "IX"

    def test_explicit_kinds(self, sample_trace) -> None:
        placements = trace_placements(sample_trace, kinds=("stage",))
        assert [p.name for p in placements] == ["IX", "X"]
        assert min(p.start_s for p in placements) == 0.0

    def test_empty_trace_gives_no_placements(self) -> None:
        placements = trace_placements(Tracer().trace())
        assert placements == []

    def test_simulation_result_makespan(self, sample_trace) -> None:
        result = to_simulation_result(sample_trace, kinds=("stage", "process"))
        assert result.makespan_s == pytest.approx(
            max(p.finish_s for p in result.placements)
        )

    def test_gantt_renders_postscript(self, sample_trace, tmp_path: Path) -> None:
        out = tmp_path / "trace.ps"
        plot_trace_gantt(out, sample_trace)
        content = out.read_text()
        assert content.startswith("%!PS-Adobe")
        assert "IX" in content

    def test_gantt_rejects_empty_trace(self, tmp_path: Path) -> None:
        with pytest.raises(ReproError):
            plot_trace_gantt(tmp_path / "x.ps", Tracer().trace())


class TestPipelineResultView:
    def test_rebuilds_from_spans(self, sample_trace) -> None:
        view = pipeline_result_view(sample_trace)
        run = sample_trace.by_kind("run")[0]
        assert view.implementation == "full-parallel"
        assert view.total_s == run.duration_s
        assert view.stage_durations == sample_trace.stage_durations()
        assert [p.pid for p in view.processes] == [16]
        assert view.processes[0].stage == "X"

    def test_requires_run_span(self) -> None:
        with pytest.raises(ReproError):
            pipeline_result_view(Tracer().trace())
