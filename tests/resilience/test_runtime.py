"""Tests for the resilience runtime and its run-handle lookup."""

from __future__ import annotations

import pickle

import pytest

from repro.core.artifacts import Workspace
from repro.core.recording import RunHandle, bound
from repro.errors import HeaderError, TransientToolError
from repro.resilience.faults import FaultPlan, FaultSpec, WorkerCrashError
from repro.resilience.quarantine import CRASH, EXHAUSTED, FORMAT, FailureReport
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import (
    QUARANTINE_FILE,
    current_runtime,
    disable_resilience,
    enable_resilience,
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
    with bound(RunHandle(str(workspace.root), faults=rt)):
        yield rt
    disable_resilience(workspace.root)


class TestActivation:
    def test_enable_makes_an_owning_runtime(self, workspace):
        plan = FaultPlan(seed=7)
        rt = enable_resilience(workspace.root, plan)
        try:
            # The directory holds the quarantine only; no plan file.
            assert rt.marker_dir.is_dir()
            assert list(rt.marker_dir.iterdir()) == []
            assert rt.plan == plan
            with bound(RunHandle(str(workspace.root), faults=rt)):
                assert current_runtime() is rt
            assert current_runtime() is None
        finally:
            disable_resilience(workspace.root)
        assert not rt.marker_dir.exists()

    def test_worker_copy_carries_the_plan_only(self, runtime, workspace):
        copy = pickle.loads(pickle.dumps(RunHandle(str(workspace.root), faults=runtime))).faults
        assert copy is not runtime
        assert (copy.root, copy.plan) == (runtime.root, runtime.plan)
        runtime.quarantine_reports([
            FailureReport(record="ST02", process="P4", kind=FORMAT,
                          error="HeaderError", attempts=1)
        ])
        # Not the owner: it reads the quarantine the driver persisted.
        assert "ST02" in copy.live_quarantine()

    def test_current_runtime_none_outside_a_run(self, workspace):
        assert current_runtime() is None
        with bound(RunHandle(str(workspace.root), audit=True, events=True)):
            assert current_runtime() is None


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
        assert surviving_stations(["ST01", "ST02"]) == ["ST01"]
        entries = [("ST01", "a"), ("ST02", "b")]
        assert surviving_entries(entries) == [("ST01", "a")]

    def test_pool_worker_sees_later_quarantine(self, runtime, workspace):
        """A worker started before a station is quarantined (a run-long
        pool) must not list that station when it builds a work list."""
        from repro.parallel.omp import TaskGroup, shared_executor

        entries = [("ST01", "a"), ("ST02", "b")]
        with shared_executor("process", num_workers=2) as pool:

            def in_worker(func, *args):
                # A task's window carries the bound handle to the worker.
                with TaskGroup(backend="process", executor=pool) as tg:
                    tg.task(func, *args)
                return tg.results[0]

            # Start the workers while the quarantine is still empty.
            assert in_worker(surviving_entries, entries) == entries
            runtime.quarantine_reports([
                FailureReport(record="ST02", process="P4", kind=FORMAT,
                              error="HeaderError", attempts=1)
            ])
            seen = [in_worker(surviving_entries, entries) for _ in range(4)]
            assert seen == [[("ST01", "a")]] * 4
            assert in_worker(surviving_stations, ["ST01", "ST02"]) == ["ST01"]

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

    def test_surviving_is_identity_when_inactive(self):
        stations = ["ST01", "ST02"]
        assert surviving_stations(stations) == stations


class TestIsolationFactory:
    def test_isolation_carries_policy(self, runtime):
        isolate = runtime.isolation("P3")
        assert isolate.max_attempts == runtime.policy.max_attempts
        assert isolate.retryable == (WorkerCrashError,)
        report = isolate.on_exhausted("ST01", WorkerCrashError("boom"), 3)
        assert report.record == "ST01"
        assert report.kind == CRASH
