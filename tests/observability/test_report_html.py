"""Tests for the self-contained HTML run report (``repro-report``)."""

import pytest

from repro.bench.harness import small_response_config
from repro.bench.workloads import materialize, scaled_workload
from repro.core.context import ParallelSettings, RunContext
from repro.engine.policy import pipeline_factory
from repro.observability.metrics import MetricsRegistry
from repro.observability.report_html import (
    main_report,
    render_html_report,
    write_html_report,
)
from repro.observability.tracer import Tracer
from repro.synth.events import paper_event


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    event = paper_event("EV-NOV18")
    workload = scaled_workload(event, 0.02)
    root = tmp_path_factory.mktemp("report-run")
    ctx = RunContext.for_directory(
        root / "ws",
        parallel=ParallelSettings("thread", num_workers=2),
        response_config=small_response_config(n_periods=20),
    )
    ctx.tracer = Tracer()
    ctx.metrics = MetricsRegistry()
    materialize(event, workload, ctx.workspace.input_dir)
    result = pipeline_factory("dag-parallel")().run(ctx)
    return ctx, result


class TestRenderHtmlReport:
    def test_self_contained_document(self, traced_run):
        ctx, result = traced_run
        text = render_html_report(result, metrics=ctx.metrics, workers=2)
        assert text.startswith("<!DOCTYPE html>")
        assert "</html>" in text
        # Self-contained: no external scripts, stylesheets or images.
        assert "<script" not in text
        assert "http://" not in text.replace("http://www.w3.org", "")
        assert 'rel="stylesheet"' not in text

    def test_sections_present(self, traced_run):
        ctx, result = traced_run
        text = render_html_report(result, metrics=ctx.metrics, workers=2)
        assert "Schedule (measured Gantt)" in text
        assert "<svg" in text
        assert "Critical path" in text
        assert "critical path:" in text  # rendered explain block
        assert "Metrics" in text
        assert "status-ok" in text

    def test_stage_names_and_policy_rendered(self, traced_run):
        _ctx, result = traced_run
        text = render_html_report(result, workers=2)
        assert result.implementation in text
        for stage in result.stage_durations:
            assert stage in text

    def test_without_trace_falls_back_to_stage_table(self, traced_run):
        _ctx, result = traced_run
        trace, result.trace = result.trace, None
        try:
            text = render_html_report(result)
            assert "Stages" in text
            assert "Gantt" not in text
        finally:
            result.trace = trace

    def test_title_is_escaped(self, traced_run):
        _ctx, result = traced_run
        text = render_html_report(result, title="<b>run & report</b>")
        assert "<b>run" not in text
        assert "&lt;b&gt;run &amp; report&lt;/b&gt;" in text

    def test_write_creates_parents(self, traced_run, tmp_path):
        _ctx, result = traced_run
        out = write_html_report(tmp_path / "deep" / "r.html", result)
        assert out.exists()
        assert out.read_text().startswith("<!DOCTYPE html>")


class TestReportCli:
    def test_workspace_mode_from_event_log(self, tmp_path, capsys):
        event = paper_event("EV-NOV18")
        workload = scaled_workload(event, 0.02)
        ctx = RunContext.for_directory(
            tmp_path / "ws",
            parallel=ParallelSettings("thread", num_workers=2),
            response_config=small_response_config(n_periods=20),
        )
        ctx.events = True
        materialize(event, workload, ctx.workspace.input_dir)
        pipeline_factory("dag-parallel")().run(ctx)
        out = tmp_path / "run.html"
        code = main_report(
            ["--workspace", str(ctx.workspace.root), str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "Monitor snapshot" in text
        assert "Live events" in text
        assert "run_finished" in text

    def test_workspace_mode_without_log_errors(self, tmp_path, capsys):
        code = main_report(
            ["--workspace", str(tmp_path), str(tmp_path / "out.html")]
        )
        assert code == 2
        assert "no event log" in capsys.readouterr().err
