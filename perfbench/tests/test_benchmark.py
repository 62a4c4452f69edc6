"""The benchmark's own tests: smoke runs of every workload, traced and
untraced, plus the span arithmetic on hand-built lanes.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.tracing import Lane
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        layers.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    result = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", str(trace), "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace:
        # Response spectra run in pool workers on the parallel workload:
        # a non-zero step count means worker spans came home.
        assert result["metrics"]["spectra.oscillator_steps"]["value"] > 0
        assert result["metrics"]["formats.read_calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_across_runs_and_policies():
    runs = [
        _result(_run("--workload", w, "--seed", "9", "--seconds", "1", "--trace", "1",
                     "--smoke"))["metrics"]
        for w in ("paper-event-par", "paper-event-par", "paper-event-seq")
    ]
    for name in layers.COUNT_METRICS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    # Same inputs, same kernels: the schedule does not change the work.
    for name in ("spectra.oscillator_steps", "plotting.calls"):
        assert runs[0][name]["value"] == runs[2][name]["value"], name


def test_diff_mode_prints_both_tables():
    proc = _run("--diff", "--seed", "4", "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "paper-event-par minus paper-event-seq" in proc.stdout
    assert "stage IX:" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper-event-seq", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _lane(pid, spans):
    lane = Lane(pid, 1)
    lane.spans = spans
    return lane


def test_self_time_and_wall_accounting_sum_to_the_pass():
    # Driver: pass [0, 10] > parallel_for [2, 8] > formats read [2, 3].
    driver = _lane(1, [
        ["pass", "pass", 0.0, 10.0, -1, None],
        ["parallel_for", "parallel", 2.0, 8.0, 0, {"chunks": 2}],
        ["read", "formats", 2.0, 3.0, 1, {"bytes": 7}],
    ])
    # Two workers busy in dsp over [3, 7] and [4, 8].
    workers = [
        _lane(2, [["kernel", "dsp", 3.0, 7.0, -1, {"points": 5}]]),
        _lane(3, [["kernel", "dsp", 4.0, 8.0, -1, {"points": 5}]]),
    ]
    assert layers.self_times(driver.spans) == [4.0, 5.0, 1.0]
    metrics = layers.layer_metrics([driver, *workers], driver_pid=1)
    assert metrics["dsp.self_s"] == 8.0 and metrics["dsp.points"] == 10
    assert metrics["formats.bytes_read"] == 7 and metrics["parallel.chunks"] == 2
    accounting = layers.account([driver, *workers], driver_pid=1)
    totals = dict.fromkeys(layers.COLUMNS, 0.0)
    for (_stage, column), seconds in accounting.cells.items():
        totals[column] += seconds
    assert sum(totals.values()) == pytest.approx(10.0)
    # [2, 3] formats on the driver, [3, 8] shared by the busy workers.
    assert totals["formats"] == pytest.approx(1.0)
    assert totals["dsp"] == pytest.approx(5.0)
    assert totals["untraced"] == pytest.approx(4.0)
    assert totals["parallel"] == pytest.approx(0.0)
