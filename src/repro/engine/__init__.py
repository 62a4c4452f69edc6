"""The DAG-native execution engine.

One engine executes every scheduling scheme.  A pipeline is composed
as a :class:`PipelineBuilder` graph (process tasks wire themselves
from the registry's declared reads/writes; custom tasks wire
explicitly), laid out between barriers by a :class:`SchedulingPolicy`,
and executed by the :class:`Engine` with the platform threaded
through — tracer spans, metrics shards, resilience retry/quarantine,
and the thread/process backends.

    import repro
    from repro.engine import PipelineBuilder

    builder = PipelineBuilder(name="qc-only")
    builder.add_processes([0, 1, 2, 3], strategy="seq")
    result = repro.run("workspace", policy=builder)

The paper's four schemes are the built-in policies ``seq-original``,
``seq-optimized``, ``partial-parallel`` and ``full-parallel``
(:data:`PAPER_POLICIES`);
``full-parallel-fused`` additionally executes the ``repro-lint``
fusion advisories, ``dag-parallel`` runs the layering derived
straight from the declarations, ``wavefront-parallel`` runs
prologue / station fan-out / epilogue, and
``incremental`` chains digest-checked steps.
"""

from repro.engine.graph import (
    CUSTOM,
    FUSED,
    LOOP,
    SEQ,
    TASK,
    TEMP_FOLDERS,
    PipelineBuilder,
    Region,
    Task,
    TaskGraph,
)
from repro.engine.executor import Engine, EnginePipeline, run_graph
from repro.engine.policy import (
    PAPER_POLICIES,
    POLICIES,
    DerivedPolicy,
    GraphPolicy,
    IncrementalPolicy,
    SchedulingPolicy,
    SequentialPolicy,
    StagedPolicy,
    WavefrontPolicy,
    pipeline_factory,
    policy_by_name,
    policy_names,
    register_policy,
    resolve_policy,
)

__all__ = [
    "SEQ",
    "TASK",
    "LOOP",
    "TEMP_FOLDERS",
    "CUSTOM",
    "FUSED",
    "Task",
    "Region",
    "TaskGraph",
    "PipelineBuilder",
    "Engine",
    "EnginePipeline",
    "run_graph",
    "SchedulingPolicy",
    "SequentialPolicy",
    "StagedPolicy",
    "DerivedPolicy",
    "GraphPolicy",
    "WavefrontPolicy",
    "IncrementalPolicy",
    "PAPER_POLICIES",
    "POLICIES",
    "pipeline_factory",
    "policy_by_name",
    "policy_names",
    "register_policy",
    "resolve_policy",
]
