"""Tests for the marker-activated resilience runtime."""

from __future__ import annotations

import pytest

from repro.core.artifacts import Workspace
from repro.errors import HeaderError, TransientToolError
from repro.resilience.faults import FaultPlan, FaultSpec, WorkerCrashError
from repro.resilience.quarantine import CRASH, EXHAUSTED, FORMAT, FailureReport
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import (
    PLAN_FILE,
    QUARANTINE_FILE,
    active_runtime,
    disable_resilience,
    enable_resilience,
    runtime_for,
    surviving_entries,
    surviving_stations,
)


@pytest.fixture()
def workspace(tmp_path):
    return Workspace(tmp_path / "ws").create()


@pytest.fixture()
def runtime(workspace):
    plan = FaultPlan(seed=1, policy=RetryPolicy(max_attempts=3, base_delay_s=0.0))
    rt = enable_resilience(workspace.root, plan)
    yield rt
    disable_resilience(workspace.root)


class TestActivation:
    def test_enable_writes_marker_and_registers(self, workspace):
        plan = FaultPlan(seed=7)
        rt = enable_resilience(workspace.root, plan)
        try:
            assert (rt.marker_dir / PLAN_FILE).exists()
            assert active_runtime(workspace.root) is rt
            assert FaultPlan.load(rt.marker_dir / PLAN_FILE) == plan
        finally:
            disable_resilience(workspace.root)
        assert active_runtime(workspace.root) is None
        assert not rt.marker_dir.exists()

    def test_runtime_for_finds_by_subpath(self, runtime, workspace):
        assert runtime_for(workspace.work_dir) is runtime
        assert runtime_for(workspace.work_dir / "ST01l.v1") is runtime

    def test_runtime_for_none_when_inactive(self, tmp_path):
        assert runtime_for(tmp_path / "nowhere") is None


class TestRunRecord:
    def test_clean_body_runs_once(self, runtime):
        calls = []
        assert runtime.run_record("P4", "ST01l", lambda: calls.append(1)) is True
        assert calls == [1]
        assert runtime.drain_pending() == []

    def test_transient_retries_then_succeeds(self, workspace):
        plan = FaultPlan(
            seed=1,
            faults=(FaultSpec(kind="transient", target="P4:ST01l", count=2),),
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        rt = enable_resilience(workspace.root, plan)
        try:
            calls = []
            assert rt.run_record("P4", "ST01l", lambda: calls.append(1)) is True
            # The fault fired on attempts 1 and 2; only attempt 3 ran the body.
            assert calls == [1]
            assert rt.drain_pending() == []
        finally:
            disable_resilience(workspace.root)

    def test_transient_exhausts_into_pending_report(self, workspace):
        plan = FaultPlan(
            seed=1,
            faults=(FaultSpec(kind="transient", target="P4:ST01l", count=5),),
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        rt = enable_resilience(workspace.root, plan)
        try:
            assert rt.run_record("P4", "ST01l", lambda: None) is False
            (report,) = rt.drain_pending()
            assert report.record == "ST01"
            assert report.kind == EXHAUSTED
            assert report.attempts == 3
        finally:
            disable_resilience(workspace.root)

    def test_format_error_is_permanent(self, runtime):
        def body():
            raise HeaderError("truncated")

        assert runtime.run_record("P4", "ST02l", body) is False
        (report,) = runtime.drain_pending()
        assert report.kind == FORMAT
        assert report.attempts == 1
        assert report.error == "HeaderError"

    def test_pending_record_skips_siblings(self, runtime):
        def body():
            raise HeaderError("truncated")

        assert runtime.run_record("P4", "ST02l", body) is False
        # The sibling component of the same station must not run.
        calls = []
        assert runtime.run_record("P4", "ST02t", lambda: calls.append(1)) is False
        assert calls == []


class TestRunUnit:
    def test_crash_retries_then_succeeds(self, workspace):
        plan = FaultPlan(
            seed=1,
            faults=(FaultSpec(kind="crash", target="P3:ST01", count=2),),
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        rt = enable_resilience(workspace.root, plan)
        try:
            def unit():
                rt.check_crash("P3", "ST01")

            assert rt.run_unit("P3", "ST01", unit) is None
        finally:
            disable_resilience(workspace.root)

    def test_crash_exhausts_into_report(self, workspace):
        plan = FaultPlan(
            seed=1,
            faults=(FaultSpec(kind="crash", target="P3:ST01", count=9),),
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        )
        rt = enable_resilience(workspace.root, plan)
        try:
            def unit():
                rt.check_crash("P3", "ST01")

            report = rt.run_unit("P3", "ST01", unit)
            assert report is not None
            assert report.kind == CRASH
            assert report.attempts == 2
            assert report.error == "WorkerCrashError"
        finally:
            disable_resilience(workspace.root)


class TestQuarantine:
    def station_artifacts(self, workspace, station):
        paths = [
            workspace.component_v1(station, "l"),
            workspace.component_v2(station, "t"),
            workspace.component_f(station, "v"),
            workspace.plot_fourier(station),
            workspace.gem(station, "l", "2", "A"),
        ]
        for path in paths:
            path.write_text("artifact\n")
        return paths

    def test_quarantine_purges_and_persists(self, runtime, workspace):
        victims = self.station_artifacts(workspace, "ST01")
        keepers = self.station_artifacts(workspace, "ST10")  # ST1* glob trap
        report = FailureReport(record="ST01", process="P4", kind=FORMAT,
                               error="HeaderError", attempts=1)
        fresh = runtime.quarantine_reports([report, None])
        assert fresh == [report]
        assert all(not p.exists() for p in victims)
        assert all(p.exists() for p in keepers)
        assert (runtime.marker_dir / QUARANTINE_FILE).exists()

    def test_duplicate_reports_fold_once(self, runtime):
        a = FailureReport(record="ST01", process="P4", kind=FORMAT,
                          error="HeaderError", attempts=1)
        b = FailureReport(record="ST01", process="P7", kind=EXHAUSTED,
                          error="TransientToolError", attempts=3)
        assert runtime.quarantine_reports([a]) == [a]
        assert runtime.quarantine_reports([b]) == []
        assert runtime.quarantine.signature() == (
            ("ST01", "P4", FORMAT, "HeaderError", 1),
        )

    def test_surviving_filters(self, runtime, workspace):
        report = FailureReport(record="ST02", process="P4", kind=FORMAT,
                               error="HeaderError", attempts=1)
        runtime.quarantine_reports([report])
        assert runtime.surviving(["ST01", "ST02", "ST03"]) == ["ST01", "ST03"]
        assert surviving_stations(workspace, ["ST01", "ST02"]) == ["ST01"]
        entries = [("ST01", "a"), ("ST02", "b")]
        assert surviving_entries(workspace, entries) == [("ST01", "a")]

    def test_pool_worker_sees_later_quarantine(self, runtime, workspace):
        """A worker forked before a station is quarantined (a run-long
        pool) must not list that station when it builds a work list."""
        from repro.parallel.omp import shared_executor

        entries = [("ST01", "a"), ("ST02", "b")]
        with shared_executor("process", num_workers=2) as pool:
            # Fork the workers while the quarantine is still empty.
            assert pool.submit(surviving_entries, workspace, entries).result() == entries
            runtime.quarantine_reports([
                FailureReport(record="ST02", process="P4", kind=FORMAT,
                              error="HeaderError", attempts=1)
            ])
            seen = [pool.submit(surviving_entries, workspace, entries) for _ in range(4)]
            assert [f.result() for f in seen] == [[("ST01", "a")]] * 4
            assert pool.submit(surviving_stations, workspace, ["ST01", "ST02"]).result() == [
                "ST01"
            ]

    def test_enable_clears_stale_quarantine_file(self, workspace):
        marker = workspace.root / "resilience"
        marker.mkdir(parents=True, exist_ok=True)
        (marker / QUARANTINE_FILE).write_text('{"reports": [{"record": "ST01", '
                                              '"process": "P4", "kind": "format", '
                                              '"error": "HeaderError"}]}\n')
        enable_resilience(workspace.root, FaultPlan(seed=1))
        try:
            assert not (marker / QUARANTINE_FILE).exists()
        finally:
            disable_resilience(workspace.root)

    def test_surviving_is_identity_when_inactive(self, tmp_path):
        ws = Workspace(tmp_path / "plain").create()
        stations = ["ST01", "ST02"]
        assert surviving_stations(ws, stations) == stations


class TestIsolationFactory:
    def test_isolation_carries_policy(self, runtime):
        isolate = runtime.isolation("P3")
        assert isolate.max_attempts == runtime.policy.max_attempts
        assert isolate.retryable == (WorkerCrashError,)
        report = isolate.on_exhausted("ST01", WorkerCrashError("boom"), 3)
        assert report.record == "ST01"
        assert report.kind == CRASH
