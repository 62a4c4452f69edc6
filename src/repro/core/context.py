"""Run configuration.

A :class:`RunContext` bundles everything a pipeline implementation
needs: the workspace, the numerical configuration (filter defaults,
inflection settings, response-spectrum grid) and — for the parallel
implementations — the :class:`ParallelSettings` naming the backend and
worker count.  Two runs with equal contexts produce byte-identical
artifacts regardless of implementation or backend; the test suite
enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.artifacts import Workspace
from repro.dsp.fir import DEFAULT_BANDPASS, BandPassSpec
from repro.parallel.backend import Backend, resolve_workers
from repro.spectra.response import ResponseSpectrumConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.profiling import SamplingProfiler
    from repro.observability.tracer import Tracer
    from repro.resilience.faults import FaultPlan


@dataclass
class ParallelSettings:
    """Backend and worker count of a run's parallelism.

    One ``backend`` runs everything parallel in a run, as one OpenMP
    runtime does in the paper: the task-parallel stages (I, II, XI),
    the parallel-for stages, and the concurrent temp-folder tool
    instances (IV, V, VIII).  ``num_workers`` of ``None`` means one
    worker per logical processor.
    """

    backend: Backend | str = Backend.THREAD
    num_workers: int | None = None

    def __post_init__(self) -> None:
        self.backend = Backend.coerce(self.backend)

    @classmethod
    def uniform(cls, backend: Backend | str, num_workers: int | None = None) -> "ParallelSettings":
        """Alias of the constructor, kept for the benchmark harness."""
        return cls(backend, num_workers)

    @property
    def workers(self) -> int:
        """Resolved worker count."""
        return resolve_workers(self.num_workers)


@dataclass
class InflectionSettings:
    """Tunables of the FPL/FSL search (process P10)."""

    min_period: float = 1.0
    smoothing_half_width: int = 4
    persistence: int = 3
    fsl_ratio: float = 0.5
    fallback_period: float = 10.0


@dataclass
class RunContext:
    """Everything one pipeline run needs."""

    workspace: Workspace
    default_filter: BandPassSpec = DEFAULT_BANDPASS
    response_config: ResponseSpectrumConfig = field(default_factory=ResponseSpectrumConfig)
    inflection: InflectionSettings = field(default_factory=InflectionSettings)
    parallel: ParallelSettings = field(default_factory=ParallelSettings)
    #: Fourier-spectrum period band written to F files.
    fourier_max_period: float = 20.0
    #: Taper fraction applied before spectral analysis.
    taper_fraction: float = 0.05
    #: Optional span tracer; every execution layer records into it.
    #: Excluded from equality — tracing never changes artifacts.
    tracer: "Tracer | None" = field(default=None, repr=False, compare=False)
    #: Record every artifact file access of the run (see
    #: :mod:`repro.core.auditing`); cross-check the logs against the
    #: registry with :func:`repro.analysis.audit.audit_findings`.
    #: Excluded from equality — auditing never changes artifacts.
    audit: bool = field(default=False, compare=False)
    #: Stream live lifecycle/telemetry events to ``<root>/.events/``
    #: (see :mod:`repro.observability.events`): run/stage/unit/task
    #: boundaries, resilience retries and quarantines, and periodic
    #: resource heartbeats, tailed by ``repro-top`` and stitched into
    #: the HTML run report.  Excluded from equality — telemetry never
    #: changes artifacts.
    events: bool = field(default=False, compare=False)
    #: Optional run-metrics registry (see
    #: :mod:`repro.observability.metrics`); the runtime and stage
    #: executors count chunks, tasks, I/O bytes and data points into
    #: it.  Byte counts come from the workspace's path hooks; no audit
    #: log is written unless :attr:`audit` asks for one.
    #: Excluded from equality — metrics never change artifacts.
    metrics: "MetricsRegistry | None" = field(default=None, repr=False, compare=False)
    #: Optional sampling profiler (see
    #: :mod:`repro.observability.profiling`); the runner installs it
    #: for the run's duration, so driver threads are sampled directly
    #: and pool workers ship profile shards home with their results.
    #: Excluded from equality — profiling never changes artifacts.
    profiler: "SamplingProfiler | None" = field(default=None, repr=False, compare=False)
    #: Optional fault plan (see :mod:`repro.resilience`): the run
    #: executes with the plan's injected faults, retry policy, and
    #: quarantine semantics, and its result carries the failure
    #: reports.  ``None`` (the default) leaves the clean path entirely
    #: untouched.  Excluded from equality: two contexts differing only
    #: in the plan still describe the same pipeline configuration.
    resilience: "FaultPlan | None" = field(default=None, repr=False, compare=False)

    @classmethod
    def for_directory(cls, root: Path | str, **kwargs: object) -> "RunContext":
        """Context rooted at ``root`` (creating the skeleton)."""
        return cls(workspace=Workspace(root).create(), **kwargs)  # type: ignore[arg-type]

    def stations(self) -> list[str]:
        """Station codes of the run's input files."""
        return self.workspace.input_stations()
