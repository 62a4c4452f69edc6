"""Tests for the process registry and stage definitions."""

import pytest

from repro.core.registry import (
    OPTIMIZED_ORDER,
    ORIGINAL_ORDER,
    PROCESSES,
    REDUNDANT_PROCESSES,
)
from repro.core.stages import (
    LOOP,
    SEQ,
    STAGES,
    TASKS,
    TEMP_FOLDERS,
    stage_of_process,
)


class TestRegistry:
    def test_twenty_processes(self):
        assert sorted(PROCESSES) == list(range(20))

    def test_orders(self):
        assert ORIGINAL_ORDER == tuple(range(20))
        assert len(OPTIMIZED_ORDER) == 17
        assert REDUNDANT_PROCESSES == (6, 12, 14)
        assert not set(OPTIMIZED_ORDER) & set(REDUNDANT_PROCESSES)

    def test_labels(self):
        assert PROCESSES[16].label == "P16"

    def test_languages_match_paper(self):
        # §V.1: processes 0, 1, 10, 19 are exclusively C++.
        cpp = {pid for pid, spec in PROCESSES.items() if spec.lang == "cpp"}
        assert {0, 1, 10, 19} <= cpp

    def test_every_process_runnable(self):
        for spec in PROCESSES.values():
            assert callable(spec.run)

    def test_cost_tags(self):
        assert PROCESSES[16].cost == "heavy_flops"
        assert PROCESSES[9].cost == "plotting"
        assert PROCESSES[11].cost == "light"

    def test_declared_writes_unique_per_version(self):
        seen = set()
        for spec in PROCESSES.values():
            for ref in spec.writes:
                key = (ref.identity, ref.version)
                assert key not in seen, key
                seen.add(key)


class TestStages:
    def test_eleven_stages_in_order(self):
        names = [stage.name for stage in STAGES]
        assert names == ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI"]

    def test_membership_matches_paper(self):
        by_name = {s.name: s.processes for s in STAGES}
        assert by_name["I"] == (0, 1)
        assert by_name["II"] == (2, 5, 8, 17)
        assert by_name["IX"] == (16,)
        assert by_name["XI"] == (9, 15, 18)

    def test_partial_parallel_count(self):
        # Paper: 5 of 11 stages parallel in the partial implementation.
        parallel = [s.name for s in STAGES if s.partial_strategy != SEQ]
        assert parallel == ["I", "II", "VI", "X", "XI"]

    def test_full_parallel_count(self):
        # Paper: all stages except VII (10 of 11).
        sequential = [s.name for s in STAGES if s.full_strategy == SEQ]
        assert sequential == ["VII"]

    def test_strategies_match_paper(self):
        by_name = {s.name: s for s in STAGES}
        assert by_name["I"].full_strategy == TASKS
        assert by_name["III"].partial_strategy == SEQ
        assert by_name["III"].full_strategy == LOOP
        assert by_name["IV"].full_strategy == TEMP_FOLDERS
        assert by_name["V"].full_strategy == TEMP_FOLDERS
        assert by_name["VIII"].full_strategy == TEMP_FOLDERS
        assert by_name["VI"].partial_strategy == LOOP
        assert by_name["VII"].full_strategy == SEQ
        assert by_name["X"].partial_strategy == LOOP

    def test_stage_lookup(self):
        assert stage_of_process(16).name == "IX"
        with pytest.raises(KeyError):
            stage_of_process(6)  # removed process has no stage
