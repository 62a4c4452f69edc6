"""Seeded chaos soak: fault-convergence checks across the matrix.

The resilience claim mirrors the paper's equivalence claim: just as a
clean run must produce byte-identical artifacts on every implementation
and backend, a *faulty* run under one :class:`FaultPlan` must converge
— same quarantine set, same retry counts, identical degraded-report
text — no matter which implementation or backend executed it.  This
module is the soak harness behind ``repro-chaos``:

- one **clean** pass proving all legs are still byte-identical with the
  resilience machinery installed but no plan;
- per seed, one **faulty** pass of every (implementation, backend) leg
  under the same randomized plan, cross-checked for convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.context import ParallelSettings, RunContext
from repro.core.verify import workspace_digests
from repro.engine.policy import PAPER_POLICIES, policy_by_name
from repro.observability.metrics import MetricsRegistry
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth.events import EventSpec

#: The two executor backends every leg is soaked on.
BACKENDS: tuple[str, ...] = ("thread", "process")

#: Period-grid size of the soak runs (small: the soak checks fault
#: semantics, not spectra resolution).
SOAK_PERIODS: int = 20


@dataclass(frozen=True)
class ChaosRun:
    """One (implementation, backend) leg of a chaos seed."""

    implementation: str
    backend: str
    #: :meth:`QuarantineSet.signature`-shaped tuple of the leg's reports.
    quarantine: tuple
    retries: float
    faults: float
    #: Backend-invariant degraded text (the bulletin's report lines).
    degraded: str

    @property
    def label(self) -> str:
        return f"{self.implementation}/{self.backend}"


@dataclass
class ChaosSeedResult:
    """Convergence verdict of one seed across every leg."""

    seed: int
    plan: FaultPlan
    runs: list[ChaosRun] = field(default_factory=list)

    def problems(self) -> list[str]:
        """Human-readable divergences (empty means the seed converged)."""
        if not self.runs:
            return [f"seed {self.seed}: no legs ran"]
        first = self.runs[0]
        out: list[str] = []
        for run in self.runs[1:]:
            if run.quarantine != first.quarantine:
                out.append(
                    f"seed {self.seed}: quarantine set of {run.label} "
                    f"diverges from {first.label}"
                )
            if run.retries != first.retries:
                out.append(
                    f"seed {self.seed}: retry count of {run.label} "
                    f"({run.retries:g}) diverges from {first.label} ({first.retries:g})"
                )
            if run.degraded != first.degraded:
                out.append(
                    f"seed {self.seed}: degraded text of {run.label} "
                    f"diverges from {first.label}"
                )
        return out

    @property
    def converged(self) -> bool:
        return not self.problems()


@dataclass
class ChaosReport:
    """Outcome of a whole soak."""

    clean_identical: bool
    clean_problems: list[str] = field(default_factory=list)
    seeds: list[ChaosSeedResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.clean_identical and all(s.converged for s in self.seeds)

    def render(self) -> str:
        lines = ["chaos soak", "----------"]
        lines.append(
            "clean pass: "
            + ("byte-identical across all legs" if self.clean_identical else "DIVERGED")
        )
        lines.extend(f"  {p}" for p in self.clean_problems)
        for seed_result in self.seeds:
            verdict = "converged" if seed_result.converged else "DIVERGED"
            quarantined = len(seed_result.runs[0].quarantine) if seed_result.runs else 0
            lines.append(
                f"seed {seed_result.seed}: {verdict} "
                f"({len(seed_result.runs)} legs, {quarantined} quarantined)"
            )
            lines.extend(f"  {p}" for p in seed_result.problems())
        lines.append("RESULT: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def _generate_inputs(event: EventSpec, scale: float, input_dir: Path) -> None:
    from repro.bench.workloads import materialize, scaled_workload
    from repro.synth.dataset import generate_event_dataset

    if scale < 1.0:
        materialize(event, scaled_workload(event, scale), input_dir)
    else:
        generate_event_dataset(event, input_dir)


def _run_leg(
    directory: Path,
    impl_name: str,
    backend: str,
    event: EventSpec,
    scale: float,
    plan: FaultPlan | None,
    workers: int | None,
) -> tuple[ChaosRun, Path]:
    """Run one leg in its own workspace; returns the outcome + root."""
    registry = MetricsRegistry()
    ctx = RunContext.for_directory(
        directory,
        response_config=ResponseSpectrumConfig(periods=default_periods(SOAK_PERIODS)),
        parallel=ParallelSettings(backend, num_workers=workers),
        metrics=registry,
        resilience=plan,
    )
    _generate_inputs(event, scale, ctx.workspace.input_dir)
    result = policy_by_name(impl_name).run(ctx)
    reports = sorted(result.quarantine, key=lambda r: r.record)
    run = ChaosRun(
        implementation=impl_name,
        backend=backend,
        quarantine=tuple(
            (r.record, r.process, r.kind, r.error, r.attempts) for r in reports
        ),
        retries=registry.total("repro_retries_total"),
        faults=registry.total("repro_faults_injected_total"),
        degraded="\n".join(r.describe() for r in reports),
    )
    return run, ctx.workspace.root


def chaos_soak(
    root: Path | str,
    seeds: list[int],
    *,
    event: EventSpec | None = None,
    scale: float = 0.02,
    n_faults: int = 2,
    implementations: list[str] | None = None,
    backends: tuple[str, ...] = BACKENDS,
    workers: int | None = 2,
    policy: RetryPolicy | None = None,
) -> ChaosReport:
    """Soak every (implementation, backend) leg clean and per seed."""
    from repro.synth.events import PAPER_EVENTS

    if event is None:
        event = PAPER_EVENTS[0]
    if implementations is None:
        implementations = list(PAPER_POLICIES)
    root = Path(root)
    legs = [(impl, backend) for impl in implementations for backend in backends]

    # Clean pass: no plan anywhere; every leg must stay byte-identical.
    from repro.core.artifacts import Workspace

    report = ChaosReport(clean_identical=True)
    digests: dict[str, dict[str, str]] = {}
    baseline: str | None = None
    first_root: Path | None = None
    for impl_name, backend in legs:
        leg_dir = root / "clean" / f"{impl_name}-{backend}"
        run, workspace_root = _run_leg(
            leg_dir, impl_name, backend, event, scale, None, workers
        )
        if run.quarantine or run.faults:
            report.clean_identical = False
            report.clean_problems.append(
                f"clean run of {run.label} reported faults or quarantined records"
            )
        digests[run.label] = workspace_digests(Workspace(workspace_root))
        if baseline is None:
            baseline = run.label
            first_root = workspace_root
    assert baseline is not None and first_root is not None
    for label, digest in digests.items():
        if digest != digests[baseline]:
            report.clean_identical = False
            report.clean_problems.append(
                f"clean artifacts of {label} differ from {baseline}"
            )

    # Faulty passes: one shared plan per seed, convergence across legs.
    stations = Workspace(first_root).input_stations()
    for seed in seeds:
        plan = FaultPlan.randomized(seed, stations, n_faults=n_faults, policy=policy)
        seed_result = ChaosSeedResult(seed=seed, plan=plan)
        for impl_name, backend in legs:
            leg_dir = root / f"seed-{seed}" / f"{impl_name}-{backend}"
            run, _ = _run_leg(leg_dir, impl_name, backend, event, scale, plan, workers)
            seed_result.runs.append(run)
        report.seeds.append(seed_result)
    return report
