"""Unit tests for the OpenMP-shaped primitives (parallel_for, TaskGroup)."""

import contextlib
import threading
import time

import pytest

from repro.observability.metrics import MetricsRegistry, collecting, record_points
from repro.parallel import omp
from repro.parallel.backend import Backend
from repro.parallel.omp import Isolation, TaskGroup, parallel_for
from repro.resilience.faults import attempt_scope, current_attempt


def square(x: int) -> int:
    return x * x


def failing(x: int) -> int:
    if x == 3:
        raise ValueError("boom on 3")
    return x


def counting_body(x: int) -> int:
    record_points(100)
    return x


def nested_loop_task(registry: MetricsRegistry) -> None:
    record_points(100)
    parallel_for(counting_body, list(range(4)), backend="serial", metrics=registry)
    record_points(100)


class FlakyError(RuntimeError):
    """Module-level so the process backend can pickle it."""


def flaky_once_on_three(x: int) -> int:
    if x == 3 and current_attempt() == 1:
        raise FlakyError("boom on 3")
    return x


class TestParallelFor:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_order_preserved(self, backend):
        out = parallel_for(square, list(range(20)), backend=backend, num_workers=3)
        assert out == [i * i for i in range(20)]

    def test_empty_items(self):
        assert parallel_for(square, [], backend="thread") == []

    def test_single_item(self):
        assert parallel_for(square, [7], backend="thread", num_workers=4) == [49]

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
    def test_schedules_agree(self, schedule):
        out = parallel_for(
            square, list(range(17)), backend="thread", num_workers=3, schedule=schedule
        )
        assert out == [i * i for i in range(17)]

    def test_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="boom on 3"):
            parallel_for(failing, list(range(6)), backend="serial")

    def test_exception_propagates_threaded(self):
        with pytest.raises(ValueError, match="boom on 3"):
            parallel_for(failing, list(range(6)), backend="thread", num_workers=2)

    def test_actually_concurrent_threads(self):
        # Two 50 ms sleeps on two workers should overlap.
        barrier = threading.Barrier(2, timeout=5)

        def body(_: int) -> bool:
            barrier.wait()  # deadlocks unless two bodies run at once
            return True

        out = parallel_for(body, [0, 1], backend="thread", num_workers=2,
                           schedule="dynamic")
        assert out == [True, True]

    def test_thread_results_match_serial(self, rng):
        items = rng.integers(0, 1000, size=50).tolist()
        serial = parallel_for(square, items, backend="serial")
        threaded = parallel_for(square, items, backend="thread", num_workers=4)
        assert serial == threaded


class TestSharedExecutor:
    def test_serial_yields_none(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("serial") as pool:
            assert pool is None

    def test_single_worker_yields_none(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=1) as pool:
            assert pool is None

    def test_reused_across_loops(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=3) as pool:
            assert pool is not None
            first = parallel_for(square, list(range(10)), executor=pool)
            second = parallel_for(square, list(range(5)), executor=pool)
        assert first == [i * i for i in range(10)]
        assert second == [i * i for i in range(5)]

    def test_exception_propagates_through_shared_pool(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=2) as pool:
            with pytest.raises(ValueError, match="boom on 3"):
                parallel_for(failing, list(range(6)), executor=pool)
            # The pool survives the failure and remains usable.
            assert parallel_for(square, [2], executor=pool) == [4]

    def test_pool_shut_down_after_context(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=2) as pool:
            pass
        with pytest.raises(RuntimeError):
            pool.submit(square, 1)


class TestTaskGroup:
    def test_collects_results_in_submission_order(self):
        with TaskGroup(backend="thread", num_workers=3) as tg:
            tg.task(square, 2)
            tg.task(square, 3)
            tg.task(square, 4)
        assert tg.results == [4, 9, 16]

    def test_serial_backend(self):
        with TaskGroup(backend="serial") as tg:
            tg.task(square, 5)
        assert tg.results == [25]

    def test_explicit_taskwait_batches(self):
        with TaskGroup(backend="thread", num_workers=2) as tg:
            tg.task(square, 1)
            first = tg.taskwait()
            tg.task(square, 2)
        assert first == [1]
        assert tg.results == [1, 4]

    def test_exception_at_barrier(self):
        with pytest.raises(ValueError, match="boom on 3"):
            with TaskGroup(backend="thread", num_workers=2) as tg:
                tg.task(failing, 3)

    def test_tasks_run_concurrently(self):
        barrier = threading.Barrier(2, timeout=5)

        def body() -> bool:
            barrier.wait()
            return True

        with TaskGroup(backend="thread", num_workers=2) as tg:
            tg.task(body)
            tg.task(body)
        assert tg.results == [True, True]

    def test_single_worker_degrades_to_serial(self):
        with TaskGroup(backend="thread", num_workers=1) as tg:
            tg.task(square, 6)
            tg.task(square, 7)
        assert tg.results == [36, 49]

    def test_borrowed_pool_left_open(self):
        from repro.parallel.omp import shared_executor

        with shared_executor("thread", num_workers=2) as pool:
            with TaskGroup(backend="thread", num_workers=2, executor=pool) as tg:
                tg.task(square, 2)
                tg.task(square, 3)
            assert tg.results == [4, 9]
            # The barrier did not shut the borrowed pool down.
            assert pool.submit(square, 4).result() == 16

    def test_borrowed_pool_quiescent_after_driver_error(self):
        from repro.parallel.omp import shared_executor

        finished: list[int] = []

        def slow() -> None:
            time.sleep(0.2)
            finished.append(1)

        with shared_executor("thread", num_workers=2) as pool:
            with pytest.raises(RuntimeError, match="driver"):
                with TaskGroup(backend="thread", num_workers=2, executor=pool) as tg:
                    tg.task(slow)
                    raise RuntimeError("driver")
            # The group waited for its task before the error left it.
            assert finished == [1]


class TestBodyMetrics:
    """Metrics recorded inside a body reach the registry on every backend."""

    @pytest.mark.parametrize("installed", [False, True], ids=["bare", "collecting"])
    @pytest.mark.parametrize("construct", ["parallel_for", "taskgroup"])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_full_count(self, backend, construct, installed):
        reg = MetricsRegistry()
        with collecting(reg) if installed else contextlib.nullcontext():
            if construct == "parallel_for":
                parallel_for(counting_body, list(range(40)), backend=backend,
                             num_workers=2, metrics=reg)
                expected = 4000
            else:
                with TaskGroup(backend=backend, num_workers=2, metrics=reg) as tg:
                    for i in range(20):
                        tg.task(counting_body, i)
                expected = 2000
        assert reg.total("repro_points_processed_total") == expected


    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_loop_inside_task_keeps_task_metrics(self, backend):
        # The loop's windows open and drain inside the task's window on
        # the same thread; the task's own records around it survive.
        reg = MetricsRegistry()
        with TaskGroup(backend=backend, num_workers=2, metrics=reg) as tg:
            tg.task(nested_loop_task, reg)
        assert reg.total("repro_points_processed_total") == 600


class TestTaskGroupFailure:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_later_task_runs_and_block_raises(self, backend):
        ran: list[int] = []
        with pytest.raises(ValueError, match="boom on 3"):
            with TaskGroup(backend=backend, num_workers=2) as tg:
                tg.task(failing, 3)
                tg.task(ran.append, 1)
        assert ran == [1]


class TestDrainRounds:
    """The pool drain waits once per round, never once per completion."""

    @pytest.fixture
    def waits(self, monkeypatch):
        calls: list[int] = []
        real = omp.wait

        def counting(futures, *args, **kwargs):
            calls.append(len(futures))
            return real(futures, *args, **kwargs)

        monkeypatch.setattr(omp, "wait", counting)
        return calls

    def test_failure_free_loop_waits_once(self, waits):
        with omp.shared_executor("thread", num_workers=2) as pool:
            out = parallel_for(square, list(range(200)), chunk_size=1, executor=pool)
        assert out == [i * i for i in range(200)]
        assert waits == [200]

    def test_isolated_retry_takes_two_rounds(self, waits):
        isolate = Isolation(retryable=(FlakyError,), attempt_scope=attempt_scope)
        with omp.shared_executor("thread", num_workers=2) as pool:
            out = parallel_for(flaky_once_on_three, list(range(6)), chunk_size=3,
                               executor=pool, isolate=isolate)
        assert out == list(range(6))
        # Round 1: both chunks; round 2: item 3 at attempt 2 plus the tail [4, 5].
        assert waits == [2, 2]
        assert isolate.reports == []
