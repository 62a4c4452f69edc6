"""Tests for the persistent run ledger (``repro-ledger``).

The acceptance bar from the ISSUE: ``repro-ledger trend`` must detect
an injected 2x stage slowdown across two recorded runs, using the perf
gate's noise-aware thresholds.
"""

from types import SimpleNamespace

import pytest

from repro.observability.ledger import (
    LEDGER_ENV,
    RunLedger,
    compare_rows,
    entries_from_bench,
    main_ledger,
    maybe_append_run,
    run_entry,
    trend,
)


def _entry(total_s=2.0, stages=None, **overrides):
    entry = {
        "created_utc": "2026-08-08T00:00:00Z",
        "source": "run",
        "event_id": "EV-NOV18",
        "workspace": "/ws",
        "implementation": "dag-parallel",
        "backend": "thread",
        "workers": 2,
        "total_s": total_s,
        "stages": stages or {"G1": 0.5, "G2": 1.5},
        "stage_self": None,
        "critical_path_s": None,
        "quarantined": 0,
        "quarantine_signature": None,
        "speedup": None,
        "extra": None,
    }
    entry.update(overrides)
    return entry


def _fake_run(total_s=1.5, quarantine=()):
    ctx = SimpleNamespace(
        workspace=SimpleNamespace(root="/tmp/ws"),
        parallel=SimpleNamespace(backend=SimpleNamespace(value="thread"), workers=2),
    )
    result = SimpleNamespace(
        implementation="dag-parallel",
        total_s=total_s,
        stage_durations={"G1": 0.4, "G2": 1.1},
        trace=None,
        quarantine=list(quarantine),
    )
    return ctx, result


class TestRunLedger:
    def test_append_get_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.sqlite")
        row_id = ledger.append(_entry())
        row = ledger.get(row_id)
        assert row["implementation"] == "dag-parallel"
        assert row["stages"] == {"G1": 0.5, "G2": 1.5}
        assert row["total_s"] == pytest.approx(2.0)
        assert len(ledger) == 1

    def test_rows_filter_and_order(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.sqlite")
        ledger.append(_entry(event_id="EV-A"))
        ledger.append(_entry(event_id="EV-B"))
        ledger.append(_entry(event_id="EV-A", implementation="wavefront-parallel"))
        assert len(ledger.rows()) == 3
        assert [r["event_id"] for r in ledger.rows(event_id="EV-A")] == [
            "EV-A", "EV-A",
        ]
        assert len(ledger.rows(implementation="wavefront-parallel")) == 1
        assert len(ledger.rows(limit=2)) == 2

    def test_reopen_persists(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        RunLedger(path).append(_entry())
        assert len(RunLedger(path)) == 1

    def test_run_entry_from_context_and_result(self):
        ctx, result = _fake_run()
        entry = run_entry(ctx, result)
        assert entry["implementation"] == "dag-parallel"
        assert entry["backend"] == "thread"
        assert entry["workers"] == 2
        assert entry["stages"] == {"G1": 0.4, "G2": 1.1}
        assert entry["quarantined"] == 0

    def test_run_entry_quarantine_signature_is_stable(self):
        reports = [SimpleNamespace(record="STA02"), SimpleNamespace(record="STA01")]
        ctx, result = _fake_run(quarantine=reports)
        entry = run_entry(ctx, result)
        assert entry["quarantined"] == 2
        assert entry["quarantine_signature"] == "STA01,STA02"


class TestAutoAppend:
    def test_noop_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        ctx, result = _fake_run()
        assert maybe_append_run(ctx, result) is None

    def test_appends_when_env_set(self, tmp_path, monkeypatch):
        db = tmp_path / "ledger.sqlite"
        monkeypatch.setenv(LEDGER_ENV, str(db))
        ctx, result = _fake_run()
        row_id = maybe_append_run(ctx, result)
        assert row_id is not None
        assert len(RunLedger(db)) == 1

    def test_never_raises_on_broken_ledger(self, tmp_path, monkeypatch):
        # Pointing the env at a directory makes sqlite fail to open;
        # the hook must swallow it — a broken ledger never fails a run.
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path))
        ctx, result = _fake_run()
        assert maybe_append_run(ctx, result) is None


class TestCompareAndTrend:
    def test_2x_stage_slowdown_is_flagged(self, tmp_path):
        older = _entry(stages={"G1": 0.5, "G2": 1.5})
        newer = _entry(total_s=3.5, stages={"G1": 0.5, "G2": 3.0})
        ledger = RunLedger(tmp_path / "ledger.sqlite")
        ledger.append(older)
        ledger.append(newer)
        flagged = trend(ledger.rows())
        assert len(flagged) == 1
        _old, _new, regressions = flagged[0]
        assert any(d.metric == "stage[G2]" for d in regressions)

    def test_within_noise_is_not_flagged(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.sqlite")
        ledger.append(_entry(stages={"G1": 0.5, "G2": 1.5}))
        ledger.append(_entry(stages={"G1": 0.52, "G2": 1.55}))
        assert trend(ledger.rows()) == []

    def test_different_configs_never_compared(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.sqlite")
        ledger.append(_entry(backend="thread", stages={"G2": 1.0}))
        ledger.append(_entry(backend="process", stages={"G2": 5.0}))
        assert trend(ledger.rows()) == []

    def test_compare_rows_reports_improvement(self):
        older = _entry(stages={"G2": 3.0})
        older["id"] = 1
        newer = _entry(total_s=1.0, stages={"G2": 1.0})
        newer["id"] = 2
        deltas, regressions = compare_rows(older, newer)
        assert regressions == []
        assert {d.status for d in deltas} == {"improved"}


class TestBenchEntries:
    def test_entries_from_bench_document(self):
        doc = {
            "created_utc": "2026-08-08T00:00:00Z",
            "config": {"backend": "thread", "workers": 2},
            "events": {
                "EV-NOV18": {
                    "implementations": {
                        "dag-parallel": {
                            "total_s": 1.2,
                            "stages": {"G1": 0.2},
                            "stage_self_s": {"G1": 0.1},
                            "critical_path_s": 1.0,
                            "speedup_vs_original": 2.5,
                            "runs_s": [1.2, 1.3],
                        }
                    }
                }
            },
        }
        entries = entries_from_bench(doc)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["source"] == "perf-record"
        assert entry["event_id"] == "EV-NOV18"
        assert entry["speedup"] == 2.5
        assert entry["extra"] == {"runs_s": [1.2, 1.3]}


class TestLedgerCli:
    def _seeded(self, tmp_path):
        db = tmp_path / "ledger.sqlite"
        ledger = RunLedger(db)
        ledger.append(_entry(stages={"G1": 0.5, "G2": 1.5}))
        ledger.append(_entry(total_s=3.5, stages={"G1": 0.5, "G2": 3.0}))
        return db

    def test_list_and_show(self, tmp_path, capsys):
        db = self._seeded(tmp_path)
        assert main_ledger(["--db", str(db), "list"]) == 0
        out = capsys.readouterr().out
        assert "dag-parallel" in out and "EV-NOV18" in out
        assert main_ledger(["--db", str(db), "show", "1"]) == 0
        out = capsys.readouterr().out
        assert "G2" in out and "thread" in out

    def test_compare_exits_nonzero_on_regression(self, tmp_path, capsys):
        db = self._seeded(tmp_path)
        assert main_ledger(["--db", str(db), "compare", "1", "2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_trend_detects_injected_slowdown(self, tmp_path, capsys):
        db = self._seeded(tmp_path)
        assert main_ledger(["--db", str(db), "trend"]) == 1
        out = capsys.readouterr().out
        assert "stage[G2]" in out
        assert "REGRESSION" in out

    def test_trend_advisory_mode_exits_zero(self, tmp_path, capsys):
        db = self._seeded(tmp_path)
        assert main_ledger(["--db", str(db), "trend", "--advisory"]) == 0
        assert "ADVISORY" in capsys.readouterr().out

    def test_missing_db_is_a_clear_error(self, tmp_path, capsys):
        code = main_ledger(["--db", str(tmp_path / "nope.sqlite"), "list"])
        assert code == 2
        assert "no ledger" in capsys.readouterr().err

    def test_env_var_resolves_db(self, tmp_path, monkeypatch, capsys):
        db = self._seeded(tmp_path)
        monkeypatch.setenv(LEDGER_ENV, str(db))
        assert main_ledger(["list"]) == 0
        assert "dag-parallel" in capsys.readouterr().out
