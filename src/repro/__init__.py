"""repro — parallel accelerographic (strong-motion) records processing.

A production-grade Python reproduction of *"Parallelizing
Accelerographic Records Processing"* (Canizales, Mixco & McClurg,
IPPS 2024): the 20-process Salvadoran strong-motion pipeline, its
input/output dependency analysis, the 11-stage reordering, and four
implementations (sequential original/optimized, partially and fully
parallelized), together with every substrate the paper relies on —
DSP kernels, strong-motion file formats, spectra, a stochastic
ground-motion simulator, PostScript plotting, an OpenMP-shaped
parallel runtime, a scheduling simulator for the paper's 12-LP
platform, and the benchmark harness regenerating Table I and
Figures 11–13.

Quick start::

    import repro
    from repro.synth import EventSpec

    event = EventSpec("DEMO", "2024-01-01", 5.5, 3, 30_000, seed=1)
    result = repro.run(event, workspace="run", trace=True)
    print(result.summary_lines())

:func:`repro.run` is the one-call facade: it accepts a workspace
directory, a synthetic :class:`EventSpec`, or a prepared
:class:`RunContext`; picks the scheduling policy by name (``policy=``,
a :class:`SchedulingPolicy`, or a user-built :class:`PipelineBuilder`
graph); applies one backend uniformly; and (with ``trace=``) records a
span trace of the whole run, exportable as Chrome Trace Event JSON.
"""

from repro._version import __version__
from repro.api import run
from repro.engine import (
    PAPER_POLICIES,
    PipelineBuilder,
    SchedulingPolicy,
    TaskGraph,
    policy_by_name,
    policy_names,
)
from repro.core import ParallelSettings, PipelineResult, RunContext, Workspace
from repro.observability import Trace, Tracer
from repro.synth import EventSpec, PAPER_EVENTS, generate_event_dataset

__all__ = [
    "__version__",
    "run",
    "Trace",
    "Tracer",
    "RunContext",
    "ParallelSettings",
    "Workspace",
    "PipelineResult",
    "PAPER_POLICIES",
    "PipelineBuilder",
    "SchedulingPolicy",
    "TaskGraph",
    "policy_by_name",
    "policy_names",
    "EventSpec",
    "PAPER_EVENTS",
    "generate_event_dataset",
]
