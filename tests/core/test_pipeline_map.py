"""Tests for the textual Fig. 5 / Fig. 9 rendering."""

from repro.core.pipeline_map import (
    render_pipeline_map,
    render_process_table,
    render_stage_table,
)


class TestProcessTable:
    def test_all_twenty_listed(self):
        text = render_process_table()
        for pid in range(20):
            assert f"P{pid} " in text or f"P{pid}  " in text

    def test_redundant_flagged(self):
        lines = render_process_table().splitlines()
        flagged = [line for line in lines if line.rstrip().endswith("yes")]
        assert len(flagged) == 3
        assert any(" P6 " in f" {line} " or line.lstrip().startswith("P6") for line in flagged)

    def test_io_declarations_shown(self):
        text = render_process_table()
        assert "comp_v2#1" in text
        assert "comp_v2#2" in text
        assert "filter_corrected#1" in text


class TestStagePlan:
    def test_eleven_stages(self):
        text = render_stage_table()
        for stage in ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI"):
            assert f"\n{stage:>5}  " in text or text.startswith(f"{stage:>5}  ")

    def test_war_edge_listed(self):
        # The critical anti-dependency: P7 before P13's overwrite.
        text = render_stage_table()
        assert "P7 -> P13" in text
        assert "WAR" in text

    def test_antichain_layers_listed(self):
        text = render_stage_table()
        assert "layer 0: P0, P1, P2, P11" in text

    def test_strategies_shown(self):
        text = render_stage_table()
        assert "temp_folders" in text
        assert "tasks" in text


class TestCli:
    def test_pipeline_map_command(self, capsys):
        from repro.cli import main_bench

        assert main_bench(["pipeline-map"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "Fig. 9" in out


def test_full_map_contains_both():
    text = render_pipeline_map()
    assert "Process inventory" in text
    assert "Stage plan" in text
