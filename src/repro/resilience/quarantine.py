"""Classified failure reports and the per-run quarantine set.

A quarantined record is a *station*: the pipeline's unit of bulletin
output.  One bad component file poisons its station (the bulletin must
not publish a station with partial spectra), but never the event — the
stage plan continues with the survivors and the bulletin renders a
degraded-mode section explaining what was dropped and why.

Reports deliberately carry no absolute paths and no timings in their
comparable fields: the acceptance bar is that the same fault plan
produces the *same* quarantine set and degraded bulletin text across
every implementation and backend, and workspace paths would break that.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import (
    FormatError,
    MissingArtifactError,
    RetryExhaustedError,
    TransientToolError,
)

#: Failure classes a report may carry.
FORMAT = "format"
EXHAUSTED = "exhausted-retries"
CRASH = "worker-crash"
FATAL = "fatal"
KINDS = (FORMAT, EXHAUSTED, CRASH, FATAL)


def classify(error: BaseException) -> str:
    """Map an exception to a failure class."""
    from repro.resilience.faults import WorkerCrashError

    if isinstance(error, (FormatError, MissingArtifactError)):
        return FORMAT
    if isinstance(error, (RetryExhaustedError, TransientToolError)):
        return EXHAUSTED
    if isinstance(error, WorkerCrashError):
        return CRASH
    return FATAL


@dataclass(frozen=True)
class FailureReport:
    """Why one record (or one whole event) left the run."""

    record: str
    process: str
    kind: str
    error: str
    attempts: int = 1

    @classmethod
    def from_exception(
        cls, record: str, process: str, error: BaseException, attempts: int = 1,
        kind: str | None = None,
    ) -> "FailureReport":
        return cls(
            record=record,
            process=process,
            kind=kind or classify(error),
            error=type(error).__name__,
            attempts=attempts,
        )

    def describe(self) -> str:
        """One stable line for the degraded bulletin section."""
        noun = "attempt" if self.attempts == 1 else "attempts"
        return (
            f"{self.record:<8} {self.process:<4} {self.kind:<17} "
            f"{self.error} after {self.attempts} {noun}"
        )

    def to_dict(self) -> dict:
        return {
            "record": self.record,
            "process": self.process,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureReport":
        return cls(
            record=str(data["record"]),
            process=str(data["process"]),
            kind=str(data["kind"]),
            error=str(data["error"]),
            attempts=int(data.get("attempts", 1)),
        )


class QuarantineSet:
    """The records removed from a run, first report wins.

    Deduplication by record is what makes quarantine sets converge: a
    fault that surfaces at P4 *and* P13 in one implementation but only
    at P4 in another (because the staged plan already filtered the
    record out of stage VIII) still yields one identical entry.
    """

    def __init__(self) -> None:
        self._reports: dict[str, FailureReport] = {}

    def add(self, report: FailureReport) -> bool:
        """Record one failure; ``True`` if the record is newly quarantined."""
        if report.record in self._reports:
            return False
        self._reports[report.record] = report
        return True

    def __contains__(self, record: str) -> bool:
        return record in self._reports

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self) -> Iterator[FailureReport]:
        return iter(self.reports())

    def records(self) -> set[str]:
        """The quarantined record ids."""
        return set(self._reports)

    def reports(self) -> list[FailureReport]:
        """All reports, sorted by record for stable rendering."""
        return [self._reports[r] for r in sorted(self._reports)]

    def signature(self) -> tuple:
        """Order-independent identity for convergence comparisons."""
        return tuple(
            (r.record, r.process, r.kind, r.error, r.attempts) for r in self.reports()
        )

    def to_dict(self) -> dict:
        return {"reports": [r.to_dict() for r in self.reports()]}

    @classmethod
    def from_dict(cls, data: dict) -> "QuarantineSet":
        qs = cls()
        for entry in data.get("reports") or []:
            qs.add(FailureReport.from_dict(entry))
        return qs

    def save(self, path: Path | str) -> None:
        """Write atomically: a reader in another process sees the old
        set or the new one, never a torn file."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Path | str) -> "QuarantineSet":
        return cls.from_dict(json.loads(Path(path).read_text()))
