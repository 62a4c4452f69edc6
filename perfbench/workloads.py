"""The benchmark's workloads: seeded inputs, one pass, the output check.

Every workload runs the pipeline through the public API
(``policy_by_name(...).pipeline().run(ctx)``); ``catalog-bulletin``
then checks the inventory, summarizes each event and renders the
bulletin.  The output check compares each pass's artifacts to a
``seq-original`` reference run of the same inputs, byte for byte by
digest (the repository's cross-policy invariant), and the bulletin's
event rows without the timing column.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import batch, verify
from repro.core.context import ParallelSettings, RunContext
from repro.engine import policy_by_name
from repro.observability.metrics import MetricsRegistry
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.formats.v1 import write_v1
from repro.synth.dataset import synthesize_station_record
from repro.synth.events import PAPER_EVENTS, paper_event
from repro.synth.network import make_network

#: Worker count of every workload (the benchmark host's core count).
WORKERS = 2
#: Per-file size factor of ``catalog-bulletin`` and its smallest file.
CATALOG_SCALE = 0.02
CATALOG_MIN_POINTS = 400
#: ``--smoke`` inputs: two events at most, two 400-point files each.
SMOKE_FILES = 2
SMOKE_POINTS = 400
SMOKE_PERIODS = 8
REFERENCE_POLICY = "seq-original"
BULLETIN_TITLE = "Seismic activity bulletin"
#: Workspace entries that are telemetry, not pipeline output.
TELEMETRY_DIRS = (".events", ".audit")
#: Packages whose modules a pass uses; imported during set-up.
PROGRAM_PACKAGES = (
    "repro.formats", "repro.dsp", "repro.spectra", "repro.plotting",
    "repro.core.processes", "repro.engine", "repro.parallel",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    policy: str
    backend: str
    periods: int
    catalog: bool = False
    telemetry: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-event-seq",
            "EV-NOV18 at full size under seq-optimized: kernels, formats and "
            "plotting do the work, so a kernel or format gain shows here and a "
            "runtime gain should not",
            "seq-optimized", "process", 100,
        ),
        Workload(
            "paper-event-par",
            "the same inputs under full-parallel on the process backend: pools, "
            "pickling, temp-folder staging and barriers show here and not in "
            "paper-event-seq",
            "full-parallel", "process", 100,
        ),
        Workload(
            "catalog-bulletin",
            "all six events at scale 0.02 under dag-parallel threads with events "
            "and metrics on, then verify, summarize and render: per-file fixed "
            "costs and telemetry dominate",
            "dag-parallel", "thread", 30, catalog=True, telemetry=True,
        ),
    )
}


@dataclass
class Dataset:
    """Generated inputs: ``<root>/<event id>/*.v1`` per event."""

    root: Path
    events: list
    points: int
    periods: int


@dataclass
class Outcome:
    """What one pass produced."""

    seconds: float = 0.0
    #: (event id, workspace, PipelineResult) of every event that ran.
    runs: list = field(default_factory=list)
    #: event id -> traceback of every event that raised.
    errors: dict = field(default_factory=dict)
    bulletin: str = ""


@dataclass
class Reference:
    """The ``seq-original`` run of the same inputs."""

    digests: dict
    rows: dict


def load_program() -> None:
    """Import every module a pass uses (part of set-up time)."""
    from perfbench.tracing import submodules

    for package in PROGRAM_PACKAGES:
        submodules(package)


def event_seed(seed: int, event_id: str) -> int:
    """The seed an event's synthetic records are drawn from."""
    return zlib.crc32(f"{seed}:{event_id}".encode()) & 0x7FFFFFFF


def make_inputs(workload: Workload, seed: int, root: Path, smoke: bool = False) -> Dataset:
    """Generate the workload's V1 inputs from ``seed`` under ``root``.

    The catalog fixes each event's structure (per-file point counts and
    station network, from the catalog's own event seed) so every seed
    costs the same work; ``seed`` draws the waveforms.
    """
    base = PAPER_EVENTS if workload.catalog else (paper_event("EV-NOV18"),)
    if smoke:
        base = base[:2]
    events, points = [], 0
    for spec in base:
        if smoke:
            per_file = [SMOKE_POINTS] * SMOKE_FILES
        elif workload.catalog:
            per_file = [
                max(CATALOG_MIN_POINTS, round(p * CATALOG_SCALE)) for p in spec.file_points()
            ]
        else:
            per_file = spec.file_points()
        event = dataclasses.replace(spec, seed=event_seed(seed, spec.event_id))
        folder = root / event.event_id
        folder.mkdir(parents=True, exist_ok=True)
        for station, npts in zip(make_network(len(per_file), seed=spec.seed), per_file):
            write_v1(folder / f"{station.code}.v1", synthesize_station_record(event, station, npts))
        events.append(event)
        points += sum(per_file)
    return Dataset(root, events, points, SMOKE_PERIODS if smoke else workload.periods)


def prepare(dataset: Dataset, dest: Path) -> None:
    """Copy the inputs into fresh per-event workspaces under ``dest``."""
    for event in dataset.events:
        shutil.copytree(dataset.root / event.event_id, dest / event.event_id / "input")


def _context(workload: Workload, dataset: Dataset, root: Path, registry=None) -> RunContext:
    kwargs: dict = {
        "parallel": ParallelSettings.uniform(workload.backend, num_workers=WORKERS),
        "response_config": ResponseSpectrumConfig(periods=default_periods(dataset.periods)),
    }
    if registry is not None:
        kwargs.update(events=True, metrics=registry)
    return RunContext.for_directory(root, **kwargs)


def run_pass(workload: Workload, dataset: Dataset, pass_dir: Path, recorder=None) -> Outcome:
    """One timed pass over inputs already copied by :func:`prepare`.

    With a ``recorder`` the pass is the root span of the traced run.
    Calls into ``verify`` and ``batch`` go through the modules, so the
    traced run's wrappers see them.
    """
    registry = MetricsRegistry() if workload.telemetry else None
    outcome = Outcome()
    summaries = []
    token = recorder.open("pass", "pass") if recorder is not None else None
    start = time.perf_counter()
    for event in dataset.events:
        ctx = _context(workload, dataset, pass_dir / event.event_id, registry)
        try:
            result = policy_by_name(workload.policy).pipeline().run(ctx)
            if workload.catalog:
                report = verify.verify_inventory(ctx.workspace)
                if not report.ok:
                    raise RuntimeError(report.render())
                summaries.append(batch.summarize_event_run(ctx, event, result))
            outcome.runs.append((event.event_id, ctx.workspace, result))
        except Exception:  # counted as a failed event; the pass goes on
            outcome.errors[event.event_id] = traceback.format_exc()
    if workload.catalog:
        outcome.bulletin = batch.Bulletin(title=BULLETIN_TITLE, events=summaries).render()
    outcome.seconds = time.perf_counter() - start
    if token is not None:
        recorder.close(token)
    return outcome


def artifact_digests(workspace) -> dict[str, str]:
    """sha256 per pipeline artifact, telemetry and metrics files left out."""
    return {
        name: digest
        for name, digest in verify.workspace_digests(workspace).items()
        if not any(part in TELEMETRY_DIRS for part in name.split("/"))
        and not name.endswith(".prom") and "metrics" not in name
    }


def bulletin_rows(text: str, event_ids) -> dict[str, str]:
    """Event rows of a rendered bulletin, without the ``proc s`` column."""
    ids = set(event_ids)
    rows = {}
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] in ids:
            rows[fields[0]] = line.rsplit(None, 1)[0]
    return rows


def reference_run(workload: Workload, dataset: Dataset, ref_dir: Path) -> Reference:
    """Run ``seq-original`` on the inputs; keep digests and bulletin rows."""
    prepare(dataset, ref_dir)
    digests, summaries = {}, []
    for event in dataset.events:
        ctx = _context(workload, dataset, ref_dir / event.event_id)
        result = policy_by_name(REFERENCE_POLICY).pipeline().run(ctx)
        digests[event.event_id] = artifact_digests(ctx.workspace)
        if workload.catalog:
            summaries.append(batch.summarize_event_run(ctx, event, result))
    rows = {}
    if workload.catalog:
        text = batch.Bulletin(title=BULLETIN_TITLE, events=summaries).render()
        rows = bulletin_rows(text, digests)
    shutil.rmtree(ref_dir, ignore_errors=True)
    return Reference(digests, rows)


def check(workload: Workload, outcome: Outcome, reference: Reference) -> dict[str, str]:
    """Event id -> reason, for every event the pass got wrong."""
    failures = {
        event_id: text.strip().splitlines()[-1] for event_id, text in outcome.errors.items()
    }
    for event_id, workspace, _result in outcome.runs:
        got, want = artifact_digests(workspace), reference.digests[event_id]
        if got != want:
            differing = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            failures[event_id] = (
                f"{len(differing)} artifacts differ from {REFERENCE_POLICY}, "
                f"first {differing[0]}"
            )
    if workload.catalog:
        rows = bulletin_rows(outcome.bulletin, reference.rows)
        for event_id, row in reference.rows.items():
            if event_id not in failures and rows.get(event_id) != row:
                failures[event_id] = f"bulletin row differs from {REFERENCE_POLICY}"
    return failures
