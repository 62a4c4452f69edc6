"""The simulated model, pinned bit for bit.

The fixture holds ``repr`` of every makespan and per-stage duration the
cost model and machine model produce for the simulated policies on the
six paper workloads (``PAPER_MACHINE``).  The reproduction tests only
bound the model against the paper within a tolerance; this test shows
that a refactor of the task-graph builder leaves the model's numbers
exactly as they were.  Regenerate the fixture only for a deliberate
model change: ``python tests/bench/test_model_pin.py``.
"""

import json
from pathlib import Path

import pytest

from repro.bench.taskgraphs import simulate_implementation
from repro.bench.workloads import paper_workloads
from repro.parallel.simulate import PAPER_MACHINE

FIXTURE = Path(__file__).with_name("data") / "model_pin.json"

PINNED_POLICIES = (
    "seq-original",
    "seq-optimized",
    "partial-parallel",
    "full-parallel",
    "wavefront-parallel",
)


def snapshot(policy: str) -> dict:
    """repr() of the makespan and stage durations on every workload."""
    out = {}
    for workload in paper_workloads():
        result = simulate_implementation(policy, workload, machine=PAPER_MACHINE)
        out[workload.event_id] = {
            "makespan_s": repr(result.makespan_s),
            "stage_durations": {
                stage: repr(value) for stage, value in result.stage_durations().items()
            },
        }
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("policy", PINNED_POLICIES)
def test_model_is_bit_identical_to_the_pin(pinned, policy):
    assert snapshot(policy) == pinned[policy]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({p: snapshot(p) for p in PINNED_POLICIES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
