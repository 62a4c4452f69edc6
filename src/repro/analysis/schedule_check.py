"""Schedule conformance: re-derive the optimization from declarations.

The paper's §IV eliminates three redundant processes and its Fig. 9
folds the remaining seventeen into eleven barrier stages.  Both of
those results are *derivable* from the registry's versioned read/write
declarations, so this pass derives them independently and fails if the
hand-maintained constants (``REDUNDANT_PROCESSES``,
``OPTIMIZED_ORDER``, ``STAGES``) ever drift from what the declarations
imply.

Two elimination rules reproduce §IV:

- **dead write** — every version the process writes is overwritten by
  a later process before anyone reads it (P6: its plots are replotted
  by P15, unread in between);
- **identical recompute** — the process writes exactly the next
  versions of what one earlier process wrote, from equal resolved
  reads, with no input rewritten in between, so its outputs are
  byte-identical to files that already exist (P12 vs P3, P14 vs P5).
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.model import ERROR, INFO, Finding
from repro.core.dependencies import validate_sequential_order
from repro.core.registry import (
    LATEST,
    OPTIMIZED_ORDER,
    ORIGINAL_ORDER,
    PROCESSES,
    REDUNDANT_PROCESSES,
)
from repro.core.stages import STAGES
from repro.engine.policy import StagedPolicy, policy_by_name, policy_names
from repro.errors import PipelineError


def _resolved_reads(pid: int, versions: dict[str, list[int]]) -> set[tuple[str, int]]:
    """A process's reads with LATEST pinned to the newest version."""
    out = set()
    for ref in PROCESSES[pid].reads:
        present = versions.get(ref.identity, [])
        version = max(present) if (ref.version == LATEST and present) else ref.version
        if ref.version == LATEST and not present:
            version = 0
        out.add((ref.identity, version))
    return out


def derive_redundant(order: tuple[int, ...] = ORIGINAL_ORDER) -> list[int]:
    """Processes the declarations prove removable from ``order``."""
    position = {pid: i for i, pid in enumerate(order)}
    versions: dict[str, list[int]] = defaultdict(list)
    writer: dict[tuple[str, int], int] = {}
    for pid in order:
        for ref in PROCESSES[pid].writes:
            versions[ref.identity].append(ref.version)
            writer[(ref.identity, ref.version)] = pid
    readers: dict[tuple[str, int], list[int]] = defaultdict(list)
    for pid in order:
        for key in _resolved_reads(pid, versions):
            readers[key].append(pid)

    redundant: list[int] = []
    for pid in order:
        writes = {(ref.identity, ref.version) for ref in PROCESSES[pid].writes}
        if not writes:
            continue
        if _is_dead_writer(pid, writes, writer, readers):
            redundant.append(pid)
            continue
        if _is_identical_recompute(pid, writes, position, writer, readers):
            redundant.append(pid)
    return redundant


def _is_dead_writer(
    pid: int,
    writes: set[tuple[str, int]],
    writer: dict[tuple[str, int], int],
    readers: dict[tuple[str, int], list[int]],
) -> bool:
    """Every write is overwritten later and read by no one."""
    for identity, version in writes:
        if readers.get((identity, version)):
            return False
        if (identity, version + 1) not in writer:
            return False
    return True


def _is_identical_recompute(
    pid: int,
    writes: set[tuple[str, int]],
    position: dict[int, int],
    writer: dict[tuple[str, int], int],
    readers: dict[tuple[str, int], list[int]],
) -> bool:
    """The process reproduces, byte-identically, what an earlier single
    process already wrote (so its outputs already exist on disk)."""
    previous = {(identity, version - 1) for identity, version in writes}
    producers = {writer.get(key) for key in previous}
    if len(producers) != 1 or None in producers:
        return False
    (producer,) = producers
    if producer is None or position[producer] >= position[pid]:
        return False
    versions_all: dict[str, list[int]] = defaultdict(list)
    for key in writer:
        versions_all[key[0]].append(key[1])
    if _resolved_reads(pid, versions_all) != _resolved_reads(producer, versions_all):
        return False
    # No input of the pair may be rewritten between the two runs,
    # otherwise the recompute would see different bytes.
    for identity, _version in _resolved_reads(pid, versions_all):
        for version in versions_all.get(identity, []):
            rewriter = writer[(identity, version)]
            if position[producer] < position[rewriter] < position[pid]:
                return False
    return True


def schedule_findings() -> list[Finding]:
    """Check the hand-maintained schedule constants against derivation."""
    findings: list[Finding] = []

    derived = sorted(derive_redundant())
    if derived != sorted(REDUNDANT_PROCESSES):
        findings.append(
            Finding(
                "schedule", ERROR,
                f"declarations imply redundant processes {derived}, but "
                f"REDUNDANT_PROCESSES is {sorted(REDUNDANT_PROCESSES)}",
            )
        )
    expected_optimized = tuple(p for p in ORIGINAL_ORDER if p not in derived)
    if OPTIMIZED_ORDER != expected_optimized:
        findings.append(
            Finding(
                "schedule", ERROR,
                f"OPTIMIZED_ORDER {OPTIMIZED_ORDER} != derived {expected_optimized}",
            )
        )

    for name, order in (("ORIGINAL_ORDER", ORIGINAL_ORDER), ("OPTIMIZED_ORDER", OPTIMIZED_ORDER)):
        try:
            validate_sequential_order(order)
        except Exception as exc:  # StageOrderError / DependencyError
            findings.append(Finding("schedule", ERROR, f"{name} is invalid: {exc}"))

    stage_members = [pid for stage in STAGES for pid in stage.processes]
    if sorted(stage_members) != sorted(OPTIMIZED_ORDER):
        findings.append(
            Finding(
                "schedule", ERROR,
                f"stage plan covers {sorted(stage_members)} but the optimized "
                f"order is {sorted(OPTIMIZED_ORDER)}",
            )
        )
    for name in policy_names():
        policy = policy_by_name(name)
        if not isinstance(policy, StagedPolicy):
            continue
        try:
            graph, regions = policy.plan()
            graph.validate_regions(regions)
        except PipelineError as exc:  # StageOrderError / DependencyError
            findings.append(
                Finding("schedule", ERROR, f"{name} stage plan is invalid: {exc}")
            )

    findings.extend(_merge_opportunities())
    return findings


def _merge_opportunities() -> list[Finding]:
    """Advisory: consecutive stages with no edges between them could be
    fused into one barrier region (latency, not correctness)."""
    findings: list[Finding] = []
    try:
        graph, stages = StagedPolicy(name="fig9").plan()
    except PipelineError:
        return findings  # already reported as an invalid stage plan
    layers = graph.layers()
    if len(layers) < len(stages):
        findings.append(
            Finding(
                "schedule", INFO,
                f"dependency layering needs only {len(layers)} barrier layers; "
                f"the plan uses {len(stages)} stages (faithful to Fig. 9)",
            )
        )
    for earlier, later in zip(stages, stages[1:]):
        if graph.fusible(earlier, later):
            findings.append(
                Finding(
                    "schedule", INFO,
                    f"stages {earlier.label} and {later.label} share no direct "
                    "dependency edge and could start concurrently",
                )
            )
    return findings
