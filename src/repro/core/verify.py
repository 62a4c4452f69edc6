"""Workspace verification: inventory checks and cross-run diffing.

The optimization and parallelization claims all rest on "the final
output is unchanged".  This module makes that checkable outside the
test suite:

- :func:`workspace_digests` — relative path -> sha256 of every
  artifact a run produced;
- :func:`verify_inventory` — compare a finished workspace against the
  declared final-artifact inventory (missing / unexpected files);
- :func:`compare_workspaces` — byte-level diff of two runs, as the
  paper's equivalence argument demands;
- :class:`VerificationReport` — structured result with a
  human-readable rendering.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.artifacts import Workspace
from repro.errors import PipelineError


def _artifact_paths(workspace: Workspace) -> dict[str, Path]:
    """Every file under work/, keyed by relative path, in sorted order."""
    work = workspace.work_dir
    if not work.is_dir():
        raise PipelineError(f"{workspace.root} has no work/ directory to verify")
    return {
        path.relative_to(work).as_posix(): path
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }


def workspace_digests(workspace: Workspace) -> dict[str, str]:
    """sha256 of every file under work/, keyed by relative path."""
    return {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in _artifact_paths(workspace).items()
    }


@dataclass
class VerificationReport:
    """Outcome of an inventory or equivalence check."""

    ok: bool
    missing: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)
    differing: list[str] = field(default_factory=list)
    checked: int = 0

    def render(self) -> str:
        """Multi-line human-readable summary."""
        if self.ok:
            return f"OK: {self.checked} artifacts verified"
        lines = [f"FAILED ({self.checked} artifacts checked)"]
        for label, items in (
            ("missing", self.missing),
            ("unexpected", self.unexpected),
            ("differing", self.differing),
        ):
            if items:
                lines.append(f"  {label} ({len(items)}):")
                lines.extend(f"    {item}" for item in items[:20])
                if len(items) > 20:
                    lines.append(f"    ... and {len(items) - 20} more")
        return "\n".join(lines)


def verify_inventory(
    workspace: Workspace, stations: list[str] | None = None
) -> VerificationReport:
    """Check a finished run against the declared artifact inventory.

    ``stations`` narrows the expected inventory — a degraded run is
    verified against its *surviving* stations, since quarantine removed
    every artifact of the rest by design.
    """
    if stations is None:
        stations = workspace.input_stations()
    if not stations:
        raise PipelineError(f"{workspace.root} has no inputs; nothing to verify against")
    expected = set(workspace.final_artifact_names(stations))
    actual = set(_artifact_paths(workspace))
    missing = sorted(expected - actual)
    unexpected = sorted(actual - expected)
    return VerificationReport(
        ok=not missing and not unexpected,
        missing=missing,
        unexpected=unexpected,
        checked=len(expected),
    )


def compare_workspaces(a: Workspace, b: Workspace) -> VerificationReport:
    """Byte-level equivalence check of two finished runs."""
    da = workspace_digests(a)
    db = workspace_digests(b)
    missing = sorted(set(da) - set(db))
    unexpected = sorted(set(db) - set(da))
    differing = sorted(name for name in set(da) & set(db) if da[name] != db[name])
    return VerificationReport(
        ok=not missing and not unexpected and not differing,
        missing=missing,
        unexpected=unexpected,
        differing=differing,
        checked=len(set(da) | set(db)),
    )
