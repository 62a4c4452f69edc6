"""Schedule re-derivation and the symbolic race proof."""

from __future__ import annotations

from repro.analysis import derive_redundant, race_findings, schedule_findings
from repro.analysis.graphlint import RACES, task_effects, task_units, verify_policy
from repro.analysis.model import ERROR, INFO
from repro.analysis.races import atoms_may_collide, lit, process_unit_models, tpl
from repro.core.registry import OPTIMIZED_ORDER, ORIGINAL_ORDER, REDUNDANT_PROCESSES
from repro.core.stages import LOOP, STAGES, SEQ, TEMP_FOLDERS
from repro.engine import PipelineBuilder, policy_by_name


def _noop(ctx, result) -> None:
    pass


class TestScheduleDerivation:
    def test_redundant_processes_rederived(self):
        assert sorted(derive_redundant()) == sorted(REDUNDANT_PROCESSES) == [6, 12, 14]

    def test_optimized_order_is_original_minus_redundant(self):
        derived = derive_redundant()
        assert OPTIMIZED_ORDER == tuple(
            p for p in ORIGINAL_ORDER if p not in derived
        )

    def test_no_errors_and_advisories_present(self):
        findings = schedule_findings()
        assert [f for f in findings if f.severity == ERROR] == []
        # The Fig. 9 plan keeps 11 stages where layering needs 8.
        assert any(f.severity == INFO and "8 barrier layers" in f.message
                   for f in findings)


class TestRaceProof:
    def test_all_stages_race_free(self):
        assert race_findings() == []

    def test_every_parallel_stage_modeled(self):
        """Every parallel region of the full-parallel plan (the paper's
        Fig. 9 stages) has concurrent units to prove disjoint, and every
        loop or temp-folder member its keyed per-unit model."""
        _, regions = policy_by_name("full-parallel").plan(None)
        assert [r.label for r in regions] == [stage.name for stage in STAGES]
        for stage, region in zip(STAGES, regions):
            if stage.full_strategy == SEQ:
                continue
            for task in region.tasks:
                findings: list = []
                units = task_units(task, task_effects(task)[0], findings)
                assert units and findings == [], stage.name
                if task.strategy in (LOOP, TEMP_FOLDERS):
                    assert process_unit_models(task.pid, task.strategy, stage.name)

    def test_racing_plan_is_reported_as_a_race(self):
        # Two unordered tasks writing the same file share a region.
        builder = PipelineBuilder(name="racy")
        builder.add_task("a", _noop, writes=("flags",), opaque=True)
        builder.add_task("b", _noop, writes=("flags",), opaque=True)
        races = [f for f in verify_policy(builder) if f.check == RACES]
        assert races and all(f.severity == ERROR for f in races)
        assert "write/write" in races[0].message


class TestAtomAlgebra:
    def test_equal_literals_collide(self):
        assert atoms_may_collide(lit("work/a"), lit("work/a"), True)
        assert not atoms_may_collide(lit("work/a"), lit("work/b"), True)

    def test_same_template_distinct_keys_safe(self):
        a, b = tpl(".v2"), tpl(".v2")
        assert not atoms_may_collide(a, b, same_unit_keys_distinct=True)
        # Same template with possibly-equal keys does collide.
        assert atoms_may_collide(a, b, same_unit_keys_distinct=False)

    def test_lowercase_marker_refutes_absorption(self):
        # {u}l.v2 vs {u}.v2: the absorbed 'l' is lowercase, outside the
        # station-key alphabet, so no key can produce a collision.
        assert not atoms_may_collide(tpl("l.v2"), tpl(".v2"), True)
        # {u}f.ps vs {u}.ps — the Fourier-plot marker, same argument.
        assert not atoms_may_collide(tpl("f.ps"), tpl(".ps"), True)

    def test_uppercase_digit_segment_is_a_real_collision(self):
        # {u}2A.gem vs {u}A.gem: '2' is a legal key character, so key
        # "X" of one unit and "X2" of another name the same file.
        assert atoms_may_collide(tpl("2A.gem"), tpl("A.gem"), True)

    def test_equal_length_different_suffixes_safe(self):
        assert not atoms_may_collide(tpl("l.v1"), tpl("t.v1"), True)

    def test_literal_vs_template(self):
        # work/filter.par vs work/{u}.par: the stem ends in lowercase
        # 'r', which no station key contains.
        assert not atoms_may_collide(lit("work/filter.par"), tpl(".par"), True)
        # work/X2.gem vs work/{u}.gem could be unit key "X2".
        assert atoms_may_collide(lit("work/X2.gem"), tpl(".gem"), True)

    def test_distinct_directories_never_collide(self):
        assert not atoms_may_collide(
            tpl(".v1", prefix="input/"), tpl(".v1", prefix="work/"), True
        )
