"""PipelineResult serialization and the name-lookup error contract."""

from __future__ import annotations

import json

import pytest

from repro.core.runner import PipelineResult, ProcessTiming
from repro.engine import policy_by_name, policy_names
from repro.observability.tracer import Tracer


def sample_result(with_trace: bool) -> PipelineResult:
    trace = None
    if with_trace:
        tracer = Tracer()
        with tracer.span("run", kind="run", implementation="full-parallel"):
            with tracer.span("I", kind="stage"):
                pass
        trace = tracer.trace()
    return PipelineResult(
        implementation="full-parallel",
        total_s=1.25,
        processes=[
            ProcessTiming(pid=0, name="read_headers", stage="I", duration_s=0.1),
            ProcessTiming(pid=16, name="response_spectra", stage="IX", duration_s=0.9),
        ],
        stage_durations={"I": 0.1, "IX": 0.9},
        trace=trace,
    )


@pytest.mark.parametrize("with_trace", [False, True])
def test_round_trip_exact(with_trace: bool) -> None:
    result = sample_result(with_trace)
    clone = PipelineResult.from_dict(result.to_dict())
    assert clone == result  # trace excluded from equality by design
    assert clone.processes == result.processes
    assert clone.stage_durations == result.stage_durations
    if with_trace:
        assert clone.trace is not None
        assert clone.trace.epoch == result.trace.epoch
        assert clone.trace.spans == result.trace.spans
    else:
        assert clone.trace is None


def test_round_trip_survives_json(tmp_path) -> None:
    result = sample_result(True)
    path = tmp_path / "result.json"
    path.write_text(json.dumps(result.to_dict()))
    clone = PipelineResult.from_dict(json.loads(path.read_text()))
    assert clone == result
    assert clone.trace.spans == result.trace.spans


def test_unknown_implementation_error_lists_names() -> None:
    with pytest.raises(ValueError) as excinfo:
        policy_by_name("no-such-impl")
    message = str(excinfo.value)
    assert "no-such-impl" in message
    for name in policy_names():
        assert name in message
