"""Error-path ergonomics: did-you-mean lookups, duplicate-registration
diagnostics, fuse labels."""

from __future__ import annotations

import pytest

from repro.engine.graph import PipelineBuilder
from repro.engine.policy import policy_by_name, resolve_policy
from repro.errors import DependencyError


class TestDidYouMean:
    def test_policy_by_name_suggests_closest(self):
        with pytest.raises(ValueError) as err:
            policy_by_name("seq-orignal")
        message = str(err.value)
        assert "unknown policy 'seq-orignal'" in message
        assert "did you mean 'seq-original'?" in message

    def test_policy_by_name_lists_known_without_a_match(self):
        with pytest.raises(ValueError) as err:
            policy_by_name("zzz")
        message = str(err.value)
        assert "known:" in message and "dag-parallel" in message
        assert "did you mean" not in message

    def test_resolve_policy_rejects_wrong_type(self):
        with pytest.raises(ValueError, match="got int"):
            resolve_policy(7)


class TestDuplicateRegistrationSites:
    def test_error_names_both_sites(self):
        builder = PipelineBuilder()
        builder.add_task("dup", lambda ctx, result: None)  # first site
        with pytest.raises(DependencyError) as err:
            builder.add_task("dup", lambda ctx, result: None)  # second site
        message = str(err.value)
        assert "duplicate task name 'dup'" in message
        assert "first registered at" in message
        assert "registered again at" in message
        # Both sites point at this file with real line numbers.
        assert message.count("test_policy_errors.py:") == 2
        first = builder.registration_site("dup")
        assert first is not None and first in message


class TestFuseLabelDeterminism:
    def test_fused_labels_sorted_by_layer_then_name(self):
        from repro.engine.policy import policy_by_name

        graph, regions = policy_by_name("full-parallel-fused").plan()
        labels = [r.label for r in regions if "+" in r.label]
        assert labels == ["II+III", "VI+VII", "X+XI"]

    def test_fuse_is_deterministic_across_rebuilds(self):
        from repro.engine.policy import policy_by_name

        plans = [policy_by_name("full-parallel-fused").plan() for _ in range(3)]
        label_seqs = [[r.label for r in regions] for _, regions in plans]
        assert label_seqs[0] == label_seqs[1] == label_seqs[2]
