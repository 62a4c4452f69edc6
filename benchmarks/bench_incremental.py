"""Extension bench — incremental reprocessing.

Quantifies what the make-style policy buys an observatory: the cold
run pays full price, the warm rerun costs only fingerprinting plus two
byte restores for the twice-written V2 generation.
"""

from benchmarks.conftest import fresh_context
from repro.engine import policy_by_name


def test_bench_incremental_cold_vs_warm(benchmark, tmp_path, bench_dataset_dir):
    ctx = fresh_context(tmp_path / "incr", bench_dataset_dir)
    cold = policy_by_name("incremental")
    cold_result = cold.run(ctx)
    assert cold.executed  # everything ran

    def warm_run():
        policy = policy_by_name("incremental")
        return policy.run(ctx), policy

    (warm_result, warm_policy) = benchmark.pedantic(
        warm_run, rounds=3, iterations=1, warmup_rounds=0
    )
    assert warm_policy.executed == []
    assert warm_policy.restored == [4, 13]  # the twice-written V2 generation
    # Warm rerun at least 3x faster than the cold one even at this
    # tiny scale (the ratio grows with record size).
    assert warm_result.total_s < cold_result.total_s / 3.0


def test_bench_incremental_single_station_update(benchmark, tmp_path, bench_dataset_dir):
    """Appending data to one station reprocesses without a cold start."""
    ctx = fresh_context(tmp_path / "upd", bench_dataset_dir)
    policy_by_name("incremental").run(ctx)
    victim = sorted(ctx.workspace.input_dir.glob("*.v1"))[0]
    original = victim.read_text()

    state = {"flip": False}

    def update_and_rerun():
        # Alternate between two variants so every round sees a change.
        state["flip"] = not state["flip"]
        text = original.replace(" 1.", " 2.", 1) if state["flip"] else original
        victim.write_text(text)
        policy = policy_by_name("incremental")
        policy.run(ctx)
        return policy

    policy = benchmark.pedantic(update_and_rerun, rounds=2, iterations=1, warmup_rounds=0)
    assert 16 in policy.executed  # the affected chain really reran
