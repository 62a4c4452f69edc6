"""Micro-benchmarks of the parallel runtime itself.

Pins the overhead story: parallel_for dispatch cost per item, the
per-chunk cost of the worker window with telemetry off (process pool)
and on (tracer + metrics on threads), task spawn cost, and the
simulated scheduler's throughput on graphs the size the pipeline
generates (a few hundred tasks).
"""

import numpy as np
import pytest

from repro.bench.taskgraphs import build_sim_tasks
from repro.bench.workloads import paper_workloads
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.parallel.omp import TaskGroup, parallel_for, shared_executor
from repro.parallel.simulate import PAPER_MACHINE, simulate_task_graph


def _tiny(x: int) -> int:
    return x + 1


def test_bench_parallel_for_dispatch_serial(benchmark):
    items = list(range(200))
    out = benchmark(parallel_for, _tiny, items, backend="serial")
    assert out[-1] == 200


def test_bench_parallel_for_dispatch_threads(benchmark):
    items = list(range(200))
    out = benchmark(
        parallel_for, _tiny, items, backend="thread", num_workers=4, schedule="static"
    )
    assert out[0] == 1


@pytest.fixture(scope="module")
def process_pool():
    with shared_executor("process", num_workers=2) as pool:
        yield pool


def test_bench_parallel_for_dispatch_process_shared(benchmark, process_pool):
    """200 one-item chunks on a warm process pool, telemetry off."""
    items = list(range(200))
    out = benchmark(parallel_for, _tiny, items, chunk_size=1, executor=process_pool)
    assert out == [i + 1 for i in items]


def test_bench_parallel_for_dispatch_threads_telemetry(benchmark):
    """The same loop on threads with a tracer and a metrics registry on."""
    items = list(range(200))
    tracer = Tracer()
    metrics = MetricsRegistry()
    with shared_executor("thread", num_workers=2) as pool:
        out = benchmark(parallel_for, _tiny, items, chunk_size=1, executor=pool,
                        tracer=tracer, metrics=metrics)
    assert out == [i + 1 for i in items]
    rounds = metrics.total("repro_parallel_chunks_total") / len(items)
    assert rounds >= 1 and rounds == int(rounds)
    assert len(tracer.trace().by_kind("chunk")) == rounds * len(items)


def test_bench_taskgroup_spawn(benchmark):
    def spawn_four():
        with TaskGroup(backend="thread", num_workers=4) as tg:
            for i in range(4):
                tg.task(_tiny, i)
        return tg.results

    assert benchmark(spawn_four) == [1, 2, 3, 4]


def test_bench_simulator_full_graph(benchmark):
    """Scheduling the fully-parallel graph of the largest event."""
    workload = paper_workloads()[-1]
    tasks = build_sim_tasks("full-parallel", workload)
    result = benchmark(simulate_task_graph, tasks, PAPER_MACHINE)
    assert result.makespan_s > 0
    assert len(result.placements) == len(tasks)


def test_bench_simulator_wide_graph(benchmark):
    from repro.parallel.simulate import SimTask

    rng = np.random.default_rng(3)
    tasks = [
        SimTask(f"t{i}", float(rng.uniform(0.1, 5.0)), io_fraction=0.2)
        for i in range(500)
    ]
    result = benchmark(simulate_task_graph, tasks, PAPER_MACHINE)
    assert result.makespan_s > 0
