"""The metrics registry: instruments, merging, plumbing, exposition."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.errors import ReproError
from repro.observability.metrics import (
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    begin_worker_window,
    collecting,
    drain_worker_shard,
    record_io,
    record_points,
    record_process,
    recording_registry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ReproError):
            Counter().inc(-1)

    def test_gauge_set_and_set_max(self):
        g = Gauge()
        g.set(4.0)
        g.set_max(2.0)
        assert g.value == 4.0
        g.set_max(7.0)
        assert g.value == 7.0

    def test_histogram_buckets_and_overflow(self):
        h = Histogram(boundaries=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(55.5)

    def test_histogram_rejects_unsorted_boundaries(self):
        with pytest.raises(ReproError):
            Histogram(boundaries=(2.0, 1.0))
        with pytest.raises(ReproError):
            Histogram(boundaries=(1.0, 1.0))

    def test_histogram_merge_boundary_mismatch(self):
        a = Histogram(boundaries=(1.0,))
        b = Histogram(boundaries=(2.0,))
        with pytest.raises(ReproError):
            a.merge(b.payload())


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", op="read")
        b = reg.counter("x_total", op="read")
        assert a is b
        assert reg.counter("x_total", op="write") is not a
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ReproError):
            reg.gauge("x_total")

    def test_histogram_boundary_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ReproError):
            reg.histogram("h", buckets=(1.0, 3.0))
        # No explicit buckets: reuses the bound ones.
        assert reg.histogram("h").boundaries == (1.0, 2.0)

    def test_value_and_total(self):
        reg = MetricsRegistry()
        reg.counter("io_total", op="read", artifact="v1").inc(2)
        reg.counter("io_total", op="read", artifact="v2").inc(3)
        reg.counter("io_total", op="write", artifact="v1").inc(10)
        assert reg.value("io_total", op="read", artifact="v1") == 2
        assert reg.value("io_total", op="missing") is None
        assert reg.total("io_total") == 15
        assert reg.total("io_total", op="read") == 5

    def test_roundtrip_and_merge_semantics(self):
        a = MetricsRegistry()
        a.counter("c_total").inc(2)
        a.gauge("g").set(5.0)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry.from_dict(a.to_dict())
        assert b.to_dict() == a.to_dict()
        b.gauge("g").set(3.0)
        b.merge(a)
        assert b.value("c_total") == 4  # counters add
        assert b.value("g") == 5.0  # gauges take the max
        assert b.value("h") == 2  # histogram counts add

    def test_pickles_empty(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(9)
        clone = pickle.loads(pickle.dumps(reg))
        assert len(clone) == 0
        clone.counter("other_total").inc()  # still usable
        assert len(reg) == 1  # original untouched

    def test_default_histogram_buckets(self):
        reg = MetricsRegistry()
        assert reg.histogram("h").boundaries == DURATION_BUCKETS


class TestPrometheusText:
    def test_families_and_cumulative_buckets(self):
        reg = MetricsRegistry()
        reg.counter("c_total", help="a counter", op="read").inc(2)
        reg.gauge("g").set(1.5)
        h = reg.histogram("h_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        text = reg.to_prometheus_text()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{op="read"} 2.000000' in text
        assert "# TYPE g gauge" in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="10"} 2' in text  # cumulative
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert "h_seconds_count 2" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", path='a"b\\c').inc()
        text = reg.to_prometheus_text()
        assert 'path="a\\"b\\\\c"' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus_text() == ""


class TestPrometheusTypeRegression:
    """Regression guard: every instrument must export under its own
    ``# TYPE`` family — a counter or histogram silently degrading to
    gauge exposition would poison rate()/quantile queries downstream.
    """

    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("req_total").inc(3)
        reg.gauge("depth").set(7)
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_counter_is_never_a_gauge(self):
        text = self._registry().to_prometheus_text()
        assert "# TYPE req_total counter" in text
        assert "# TYPE req_total gauge" not in text

    def test_histogram_exports_the_full_family(self):
        text = self._registry().to_prometheus_text()
        assert "# TYPE lat_seconds histogram" in text
        assert "# TYPE lat_seconds gauge" not in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 0.550000" in text
        assert "lat_seconds_count 2" in text

    def test_one_type_line_per_family(self):
        text = self._registry().to_prometheus_text()
        for family in ("req_total", "depth", "lat_seconds"):
            type_lines = [
                line for line in text.splitlines()
                if line.startswith(f"# TYPE {family} ")
            ]
            assert len(type_lines) == 1, family

    def test_merged_shards_keep_their_types(self):
        a = self._registry()
        b = self._registry()
        a.merge(b.to_dict())
        text = a.to_prometheus_text()
        assert "# TYPE req_total counter" in text
        assert "# TYPE lat_seconds histogram" in text
        assert "lat_seconds_count 4" in text  # bucketwise addition


class TestPlumbing:
    def test_collecting_installs_and_restores(self):
        reg = MetricsRegistry()
        assert recording_registry() is None
        with collecting(reg):
            assert recording_registry() is reg
        assert recording_registry() is None

    def test_collecting_tolerates_none(self):
        with collecting(None) as got:
            assert got is None
            assert recording_registry() is None

    def test_worker_window_drains_shard(self):
        begin_worker_window()
        try:
            window = recording_registry()
            assert window is not None
            window.counter("c_total").inc(3)
        finally:
            shard = drain_worker_shard()
        assert shard is not None
        merged = MetricsRegistry().merge(shard)
        assert merged.value("c_total") == 3
        assert drain_worker_shard() is None  # window is closed

    def test_empty_window_drains_to_none(self):
        begin_worker_window()
        assert drain_worker_shard() is None

    def test_window_is_per_thread(self):
        seen = []
        begin_worker_window()
        try:
            other = threading.Thread(target=lambda: seen.append(recording_registry()))
            other.start()
            other.join()
        finally:
            drain_worker_shard()
        assert seen == [None]

    def test_nested_window_resumes_outer(self):
        begin_worker_window()
        try:
            recording_registry().counter("outer_total").inc(1)
            begin_worker_window()
            try:
                recording_registry().counter("inner_total").inc(2)
            finally:
                inner = drain_worker_shard()
            recording_registry().counter("outer_total").inc(1)
        finally:
            outer = drain_worker_shard()
        assert MetricsRegistry().merge(inner).value("inner_total") == 2
        merged = MetricsRegistry().merge(outer)
        assert merged.value("outer_total") == 2
        assert merged.value("inner_total") is None

    def test_installed_registry_wins_over_window(self):
        reg = MetricsRegistry()
        begin_worker_window()
        try:
            with collecting(reg):
                assert recording_registry() is reg
        finally:
            drain_worker_shard()


class TestRecordingHelpers:
    def test_noop_without_registry(self):
        record_io("read", "v1", 100)
        record_points(5)
        record_process(3, 0.1)  # must not raise

    def test_record_io(self):
        reg = MetricsRegistry()
        with collecting(reg):
            record_io("read", "v1", 100, process="P3")
            record_io("read", "v1", 50, process="P3")
        assert reg.value(
            "repro_artifact_io_bytes_total", op="read", artifact="v1", process="P3"
        ) == 150
        assert reg.value(
            "repro_artifact_io_total", op="read", artifact="v1", process="P3"
        ) == 2

    def test_record_io_bytes_only(self):
        reg = MetricsRegistry()
        with collecting(reg):
            record_io("write", "v2", 64, process="P4", count_access=False)
        assert reg.value(
            "repro_artifact_io_bytes_total", op="write", artifact="v2", process="P4"
        ) == 64
        assert reg.total("repro_artifact_io_total") == 0

    def test_record_points_and_process(self):
        reg = MetricsRegistry()
        with collecting(reg):
            record_points(1000, process="P16")
            record_process(16, 0.25)
        assert reg.value("repro_points_processed_total", process="P16") == 1000
        assert reg.value("repro_process_runs_total", process="P16") == 1
        assert reg.value("repro_process_seconds_total", process="P16") == pytest.approx(0.25)
