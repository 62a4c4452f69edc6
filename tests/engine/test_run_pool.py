"""One level of parallelism per run.

An engine run pins every loaded OpenBLAS to one thread for its
duration (driver, thread workers and process workers alike) and gives
the caller's thread counts back afterwards, also when the run fails.
Every worker pool, also one built outside a run, holds the same pin
while it is open.  Every loop and task region of a process-backend run
shares one process pool, and a plan with nothing parallel builds none.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.core.context import ParallelSettings
from repro.engine import PipelineBuilder, policy_by_name, run_graph
from repro.engine import executor as engine_executor
from repro.parallel import omp
from repro.parallel.native import blas_threads, set_blas_threads, single_threaded_blas

from tests.conftest import make_context

#: Where the spies below write what they observe.  Set before a run,
#: so forked pool workers inherit it.
_OBSERVATIONS: dict[str, Path] = {}
_ORIGINAL_TIMED = engine_executor._timed
_ORIGINAL_RESPONSE_UNIT = engine_executor._response_unit


def _observe(kind: str) -> None:
    record = {
        "kind": kind,
        "pid": os.getpid(),
        "thread": threading.get_ident(),
        "blas": sorted(set(blas_threads().values())),
    }
    path = _OBSERVATIONS["dir"] / f"{uuid.uuid4().hex}.json"
    path.write_text(json.dumps(record))


def _spy_timed(pid, ctx, **kwargs):
    """``_timed`` as a task body: a TaskGroup task or a seq member."""
    _observe("task")
    return _ORIGINAL_TIMED(pid, ctx, **kwargs)


def _spy_response_unit(workspace_root, config, pair):
    """The P16 ``parallel_for`` body."""
    _observe("loop")
    return _ORIGINAL_RESPONSE_UNIT(workspace_root, config, pair)


def _os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def _sleep_and_count_threads(_item=None) -> int:
    """A pool body: idle a while, then count this worker's OS threads.
    A BLAS thread server started in the worker shows up as extra
    threads."""
    time.sleep(0.3)
    return _os_threads()


def _pool_counts(kind: str) -> set[int]:
    """Thread counts seen by two bodies on a process pool that ``kind``
    builds outside any engine run."""
    if kind == "parallel_for":
        return set(omp.parallel_for(
            _sleep_and_count_threads, [0, 1], backend="process", num_workers=2
        ))
    if kind == "task_group":
        with omp.TaskGroup(backend="process", num_workers=2) as tg:
            tg.task(_sleep_and_count_threads)
            tg.task(_sleep_and_count_threads)
        return set(tg.results)
    with omp.shared_executor("process", 2) as pool:
        futures = [pool.submit(_sleep_and_count_threads) for _ in range(2)]
        return {f.result() for f in futures}


def _context(root: Path, dataset: Path, backend: str):
    ctx = make_context(root, parallel=ParallelSettings(backend, num_workers=2))
    for src in dataset.glob("*.v1"):
        shutil.copy2(src, ctx.workspace.input_dir / src.name)
    return ctx


@pytest.fixture()
def two_blas_threads():
    """The caller runs OpenBLAS with two threads (restored afterwards)."""
    before = blas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded in this process")
    set_blas_threads(2)
    if set(blas_threads().values()) != {2}:
        set_blas_threads(before)
        pytest.skip("OpenBLAS refuses a second thread on this host")
    yield
    set_blas_threads(before)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_run_pins_blas_and_restores(
    backend, two_blas_threads, tmp_path, tiny_dataset_dir, monkeypatch
):
    obs = tmp_path / "obs"
    obs.mkdir()
    monkeypatch.setitem(_OBSERVATIONS, "dir", obs)
    monkeypatch.setattr(engine_executor, "_timed", _spy_timed)
    monkeypatch.setattr(engine_executor, "_response_unit", _spy_response_unit)

    ctx = _context(tmp_path / "ws", tiny_dataset_dir, backend)
    policy_by_name("full-parallel").run(ctx)

    records = [json.loads(p.read_text()) for p in obs.iterdir()]
    assert records
    assert all(r["blas"] == [1] for r in records), records
    driver = os.getpid(), threading.get_ident()
    on_driver = {(r["pid"], r["thread"]) == driver for r in records}
    # Stage VII's seq member runs on the driver; stages I, II, XI and
    # the P16 loop run on workers, which are processes or threads.
    assert on_driver == {True, False}
    workers = [r for r in records if (r["pid"], r["thread"]) != driver]
    assert {r["kind"] for r in workers} == {"task", "loop"}
    if backend == "process":
        assert all(r["pid"] != os.getpid() for r in workers)
    else:
        assert all(r["pid"] == os.getpid() for r in workers)
    assert set(blas_threads().values()) == {2}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_forked_workers_leave_blas_alone(two_blas_threads):
    """Workers forked from a pinned driver start no BLAS threads: OpenBLAS's
    setter, called in a forked child, restarts a thread server whose
    threads spin on the worker's cores."""
    with single_threaded_blas(), omp.shared_executor("process", 2) as pool:
        counts = {pool.submit(_os_threads).result() for _ in range(4)}
    assert counts == {1}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("kind", ["parallel_for", "task_group", "shared_executor"])
def test_pools_outside_a_run_pin_blas(kind, two_blas_threads):
    """A pool a caller builds directly pins BLAS while it is open, so its
    workers fork single-threaded, and hands the caller's count back."""
    assert _pool_counts(kind) == {1}
    assert set(blas_threads().values()) == {2}


def test_failing_run_restores_blas(two_blas_threads, tmp_path, tiny_dataset_dir):
    seen: list[set[int]] = []

    def broken(ctx, result) -> None:
        seen.append(set(blas_threads().values()))
        raise RuntimeError("broken task")

    builder = PipelineBuilder(name="broken")
    builder.add_task("broken", broken)
    ctx = _context(tmp_path / "ws", tiny_dataset_dir, "process")
    with pytest.raises(RuntimeError, match="broken task"):
        run_graph(builder, ctx)
    assert seen == [{1}]
    assert set(blas_threads().values()) == {2}


@pytest.mark.parametrize(
    "policy", ["partial-parallel", "full-parallel", "full-parallel-fused", "dag-parallel"]
)
def test_one_process_pool_per_run(policy, tmp_path, tiny_dataset_dir, monkeypatch):
    built: list[int] = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(omp, "ProcessPoolExecutor", CountingPool)
    ctx = _context(tmp_path / "ws", tiny_dataset_dir, "process")
    policy_by_name(policy).run(ctx)
    assert len(built) == 1


def test_plan_without_parallel_regions_builds_no_pool(
    tmp_path, tiny_dataset_dir, monkeypatch
):
    opened: list[object] = []
    monkeypatch.setattr(
        engine_executor, "shared_executor",
        lambda *args: opened.append(args) or omp.shared_executor(*args),
    )
    ctx = _context(tmp_path / "ws", tiny_dataset_dir, "process")
    policy_by_name("seq-optimized").run(ctx)
    assert opened == []
