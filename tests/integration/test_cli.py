"""Tests for the command-line entry points."""

import shutil

import pytest

from repro.cli import main_bench, main_process
from tests.conftest import tiny_dataset_dir  # noqa: F401  (fixture reexport)


class TestProcessCli:
    def test_run_on_existing_dataset(self, tmp_path, tiny_dataset_dir, capsys):
        ws = tmp_path / "ws"
        (ws / "input").mkdir(parents=True)
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ws / "input" / src.name)
        rc = main_process(
            [str(ws), "-i", "seq-optimized", "--periods", "10", "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "seq-optimized" in out
        assert (ws / "work" / "v1files.lst").exists()

    def test_generate_event_scaled(self, tmp_path, capsys):
        ws = tmp_path / "gen"
        rc = main_process(
            [
                str(ws),
                "-i",
                "full-parallel",
                "--generate-event",
                "EV-NOV18",
                "--scale",
                "0.01",
                "--periods",
                "8",
                "--workers",
                "2",
            ]
        )
        assert rc == 0
        assert len(list((ws / "input").glob("*.v1"))) == 5
        out = capsys.readouterr().out
        assert "full-parallel" in out

    def test_unknown_implementation_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main_process([str(tmp_path), "-i", "warp-speed"])

    def test_trace_flag_writes_chrome_trace(self, tmp_path, tiny_dataset_dir, capsys):
        import json

        ws = tmp_path / "ws"
        (ws / "input").mkdir(parents=True)
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ws / "input" / src.name)
        trace_path = tmp_path / "run.trace.json"
        rc = main_process(
            [
                str(ws), "-i", "full-parallel", "--periods", "8",
                "--workers", "2", "--trace", str(trace_path),
            ]
        )
        assert rc == 0
        assert "trace written to" in capsys.readouterr().out
        doc = json.loads(trace_path.read_text())
        stage_events = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("cat") == "stage"
        ]
        assert len(stage_events) == 11

    def test_backend_choices_follow_enum(self):
        from repro.cli import _build_process_parser
        from repro.parallel.backend import Backend

        action = next(
            a for a in _build_process_parser()._actions if a.dest == "backend"
        )
        assert list(action.choices) == [b.value for b in Backend]


class TestBenchCli:
    def test_table1(self, capsys):
        assert main_bench(["table1"]) == 0
        out = capsys.readouterr().out
        assert "SpeedUp" in out
        assert "483.70" in out  # the calibration anchor row

    def test_figure11(self, capsys):
        assert main_bench(["figure11"]) == 0
        out = capsys.readouterr().out
        assert "IX" in out and "Paper" in out

    def test_figure12(self, capsys):
        assert main_bench(["figure12"]) == 0
        assert "Fully Parallelized" in capsys.readouterr().out

    def test_figure13(self, capsys):
        assert main_bench(["figure13"]) == 0
        assert "pts/s" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main_bench(["ablation"]) == 0
        out = capsys.readouterr().out
        assert "workers" in out
        assert "Critical-path" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main_bench(["figure99"])

    def test_figure_render_flag(self, tmp_path, capsys):
        out = tmp_path / "f11.ps"
        assert main_bench(["figure11", "--render", str(out)]) == 0
        assert out.read_text().startswith("%!PS")
        assert "rendered" in capsys.readouterr().out

    def test_schedule_render(self, tmp_path, capsys):
        out = tmp_path / "sched.ps"
        rc = main_bench(
            ["schedule", "--render", str(out), "--policy", "wavefront-parallel"]
        )
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize("policy", ["dag-parallel", "full-parallel-fused"])
    def test_schedule_renders_plans_beyond_the_paper(self, tmp_path, capsys, policy):
        out = tmp_path / "sched.ps"
        assert main_bench(["schedule", "--render", str(out), "--policy", policy]) == 0
        assert out.read_text().startswith("%!PS")

    def test_schedule_rejects_a_policy_the_simulator_cannot_replay(self, capsys):
        # The incremental plan is a chain of opaque custom tasks.
        with pytest.raises(SystemExit) as exc:
            main_bench(["schedule", "--policy", "incremental"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--policy incremental: custom task 'P0'" in err
        assert "Traceback" not in err

    def test_measured_single_event(self, capsys):
        assert main_bench(["measured", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "seq-original" in out
        assert "speedup on this machine" in out

    def test_incremental_via_process_cli(self, tmp_path, tiny_dataset_dir, capsys):
        from repro.cli import main_process

        ws = tmp_path / "ws"
        (ws / "input").mkdir(parents=True)
        for src in tiny_dataset_dir.glob("*.v1"):
            shutil.copy2(src, ws / "input" / src.name)
        args = [str(ws), "-i", "incremental", "--periods", "8", "--workers", "2"]
        assert main_process(args) == 0
        # Second invocation: warm, near-instant, still exits cleanly.
        assert main_process(args) == 0
        out = capsys.readouterr().out
        assert "incremental" in out


class TestMalformedConfigIsAUsageError:
    """A bad ``--config`` file exits 2 with one usage line, before any workspace."""

    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"parallel": {"loop_backend": "process"}}', "unknown keys ['loop_backend']"),
            ('{"parallel": {"backend": "thread",', "invalid JSON"),
            (None, "config file not found"),
            ('{"parallel": {"num_workers": "two"}}', "parallel.num_workers must be a positive integer"),
            ('{"filter": {"f_pass_low": "low"}}', "ill-typed config value"),
            ('{"parallel": {"backend": "gpu"}}', "gpu"),
        ],
        ids=["unknown-key", "bad-json", "missing-file", "ill-typed-workers", "ill-typed-float", "unknown-backend"],
    )
    def test_exits_2_with_the_reason(self, tmp_path, capsys, content, message):
        config = tmp_path / "run.json"
        if content is not None:
            config.write_text(content)
        ws = tmp_path / "ws"
        with pytest.raises(SystemExit) as exc:
            main_process([str(ws), "--config", str(config)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        (error_line,) = [line for line in err.splitlines() if ": error: " in line]
        assert "--config: " in error_line and message in error_line
        assert not ws.exists()


class TestPolicyTyposAreUsageErrors:
    """A misspelt policy exits 2 with argparse usage, not a traceback."""

    def test_profile(self, capsys):
        from repro.observability.profile_cli import main_profile

        with pytest.raises(SystemExit) as exc:
            main_profile(["--policy", "ful-parallel"])
        assert exc.value.code == 2
        assert "invalid choice: 'ful-parallel'" in capsys.readouterr().err

    def test_chaos(self, capsys):
        from repro.cli import main_chaos

        with pytest.raises(SystemExit) as exc:
            main_chaos(["--policies", "seq-original", "ful-parallel"])
        assert exc.value.code == 2
        assert "invalid choice: 'ful-parallel'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["record", "check", "explain"])
    def test_perf(self, capsys, command):
        from repro.observability.perf import main_perf

        with pytest.raises(SystemExit) as exc:
            main_perf([command, "--policies", "seq-original,ful-parallel"])
        assert exc.value.code == 2
        assert "did you mean 'full-parallel'?" in capsys.readouterr().err
