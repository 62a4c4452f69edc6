"""The sampling profiler: merge algebra, exports, span attribution."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.profiling import (
    Profile,
    SamplingProfiler,
    begin_worker_profile,
    drain_worker_profile,
    profiling_session,
    stack_state,
    thread_labels,
)
from repro.observability.tracer import Tracer
from repro.parallel.omp import parallel_for

# Exactly-representable interval so summed weights are order-exact and
# the associativity assertions can compare floats with ==.
INTERVAL = 0.25

labels_st = st.dictionaries(
    st.sampled_from(["stage", "span", "process", "state"]),
    st.sampled_from(["I", "IX", "chunk", "waiting"]),
    max_size=3,
)
stack_st = st.lists(
    st.sampled_from(["mod:f", "mod:g", "dsp:filter", "io:read"]),
    min_size=1,
    max_size=4,
).map(tuple)
entries_st = st.lists(
    st.tuples(stack_st, labels_st, st.integers(min_value=1, max_value=5)),
    max_size=8,
)


def build(entries) -> Profile:
    profile = Profile(interval_s=INTERVAL)
    for stack, labels, count in entries:
        profile.record(stack, labels, count=count)
    return profile


def _busy(seconds: float) -> int:
    """Burn CPU (not sleep) so the sampler sees working frames."""
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline:
        n += 1
    return n


def _work_item(_i: int) -> int:  # module-level: process pools pickle it
    return _busy(0.03)


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(a=entries_st, b=entries_st, c=entries_st)
    def test_associative(self, a, b, c):
        left = build(a).merge(build(b).merge(build(c)))
        right = build(a).merge(build(b)).merge(build(c))
        assert left.entries() == right.entries()

    @settings(max_examples=50, deadline=None)
    @given(a=entries_st, b=entries_st)
    def test_commutative(self, a, b):
        assert build(a).merge(build(b)).entries() == build(b).merge(build(a)).entries()

    @settings(max_examples=25, deadline=None)
    @given(a=entries_st)
    def test_empty_is_identity(self, a):
        assert build(a).merge(Profile(interval_s=INTERVAL)).entries() == build(a).entries()

    @settings(max_examples=25, deadline=None)
    @given(a=entries_st, b=entries_st)
    def test_dict_shard_merges_like_profile(self, a, b):
        # The wire format (to_dict) is what rides home with chunk
        # results; merging it must equal merging the live object.
        via_shard = build(a).merge(build(b).to_dict())
        via_profile = build(a).merge(build(b))
        assert via_shard.entries() == via_profile.entries()


class TestRoundTrips:
    def test_dict_round_trip_exact(self):
        profile = build(
            [(("mod:f", "mod:g"), {"stage": "IX"}, 3), (("io:read",), {}, 1)]
        )
        clone = Profile.from_dict(profile.to_dict())
        assert clone.entries() == profile.entries()
        assert clone.interval_s == profile.interval_s

    def test_collapsed_round_trip_keeps_stacks_and_counts(self):
        profile = build(
            [
                (("mod:f", "mod:g"), {"stage": "IX"}, 3),
                (("mod:f", "mod:g"), {"stage": "X"}, 2),  # merged across labels
                (("io:read",), {}, 1),
            ]
        )
        text = profile.to_collapsed()
        assert "mod:f;mod:g 5" in text
        clone = Profile.from_collapsed(text, interval_s=INTERVAL)
        assert clone.total_samples == profile.total_samples
        assert {s for _l, s, _c, _s in clone.entries()} == {
            ("mod:f", "mod:g"), ("io:read",)
        }

    def test_speedscope_weights_cover_non_idle_seconds(self):
        profile = build(
            [
                (("mod:f",), {"stage": "IX"}, 4),
                (("threading:wait",), {"state": "idle"}, 2),
            ]
        )
        doc = profile.to_speedscope("t")
        assert doc["$schema"].endswith("file-format-schema.json")
        (scope,) = doc["profiles"]
        assert sum(scope["weights"]) == pytest.approx(4 * INTERVAL)
        frames = doc["shared"]["frames"]
        assert all(
            0 <= i < len(frames) for sample in scope["samples"] for i in sample
        )

    def test_speedscope_group_by_stage_splits_profiles(self):
        profile = build(
            [(("mod:f",), {"stage": "IX"}, 1), (("mod:g",), {"stage": "X"}, 1)]
        )
        doc = profile.to_speedscope("t", group_by="stage")
        assert [p["name"] for p in doc["profiles"]] == ["IX", "X"]


class TestStackState:
    def test_runtime_leaf_is_waiting(self):
        assert stack_state(("mod:f", "threading:wait")) == "waiting"
        assert stack_state(("mod:f", "queue:get")) == "waiting"

    def test_all_runtime_is_idle(self):
        assert stack_state(("threading:_bootstrap", "queue:get")) == "idle"

    def test_working_otherwise(self):
        assert stack_state(("threading:_bootstrap", "mod:f")) == "working"


def _run_profiled_loop(backend: str) -> Profile:
    tracer = Tracer()
    profiler = SamplingProfiler(hz=250.0)
    with profiling_session(profiler, tracer=tracer):
        with tracer.span("run", kind="run", implementation="prof-test"):
            with tracer.span("IX", kind="stage", stage="IX"):
                parallel_for(
                    _work_item, list(range(8)), backend=backend, num_workers=2,
                    tracer=tracer, span="response_trace",
                )
    return profiler.profile


class TestSpanAttribution:
    def test_thread_backend_samples_attributed(self):
        profile = _run_profiled_loop("thread")
        assert profile.total_samples > 0
        assert profile.attributed_fraction() >= 0.95
        assert "IX" in profile.label_values("stage")

    def test_process_backend_merges_worker_shards(self):
        profile = _run_profiled_loop("process")
        assert profile.total_samples > 0
        assert profile.attributed_fraction() >= 0.95
        assert "IX" in profile.label_values("stage")

    def test_serial_backend_attributes_loop_body(self):
        profile = _run_profiled_loop("serial")
        assert profile.attributed_fraction() >= 0.95
        assert "IX" in profile.label_values("stage")


class TestWorkerProtocol:
    def test_bare_process_gets_a_sampling_window(self):
        # No driver profiler installed (the bare pool-worker situation):
        # the shim opens a window on the process-wide worker sampler.
        kind, _payload = token = begin_worker_profile(
            250.0, {"stage": "IX", "backend": "process"}
        )
        assert kind == "window"
        _busy(0.08)
        shard = drain_worker_profile(token)
        assert shard is not None and shard["entries"]
        profile = Profile.from_dict(shard)
        assert "IX" in profile.label_values("stage")
        assert profile.attributed_fraction() >= 0.95

    def test_driver_process_just_registers_labels(self):
        import threading

        tracer = Tracer()
        profiler = SamplingProfiler(hz=250.0)
        with profiling_session(profiler, tracer=tracer):
            kind, tid = token = begin_worker_profile(250.0, {"stage": "X"})
            assert kind == "labels"
            assert tid == threading.get_ident()
            assert thread_labels(tid) == {"stage": "X"}
            # In-process the driver sampler already holds the samples:
            # nothing to ship.
            assert drain_worker_profile(token) is None
        assert thread_labels(threading.get_ident()) is None


class TestProfilerLifecycle:
    def test_disabled_profiler_records_nothing(self):
        profiler = SamplingProfiler(hz=250.0)
        profiler.enabled = False
        with profiling_session(profiler) as installed:
            assert installed is None
        assert profiler.profile.total_samples == 0

    def test_pickling_disables_and_empties(self):
        import pickle

        profiler = SamplingProfiler(hz=123.0)
        clone = pickle.loads(pickle.dumps(profiler))
        assert clone.hz == 123.0
        assert clone.enabled is False
        assert clone.profile.total_samples == 0

    def test_sample_once_sees_other_threads(self):
        # The snapshot covers every thread except the sampler itself, so
        # a busy helper thread must show its frames.
        import threading

        stop = threading.Event()
        worker = threading.Thread(
            target=lambda: [_busy(0.01) for _ in iter(lambda: stop.is_set(), True)]
        )
        worker.start()
        try:
            profiler = SamplingProfiler(hz=250.0)
            assert profiler.sample_once() >= 1
        finally:
            stop.set()
            worker.join()
        frames = [f for _l, s, _c, _s in profiler.profile.entries() for f in s]
        assert any("test_profiling" in f for f in frames)
