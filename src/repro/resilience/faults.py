"""Deterministic fault injection: the seeded :class:`FaultPlan`.

A plan is a seed plus a list of :class:`FaultSpec` entries.  Every
fault is keyed by a *target* so the same plan replays bit-identically
on any implementation and backend:

``truncate-v1`` / ``garble-v1``
    Target: an artifact file name (``ST01l.v1``, ``ST01l.v2``).  The
    file is corrupted — truncated to a seeded line count, or one seeded
    line overwritten with garbage — the first time a legacy tool is
    about to read it.  Corruption is *idempotent*: re-applying it to an
    already-corrupted file changes nothing, so staged temp-folder
    inputs and the sequential in-place work file end up equally broken
    without any shared state between workers.  A staged input is a
    hard link to the workspace's artifact, so the corrupted text goes
    to a fresh file renamed over the staged name, never into the link.

``drop-config`` / ``garble-config``
    Target: a tool process label (``P4``, ``P7``, ``P13``).  The
    ``tool.cfg`` staged for that tool is deleted or overwritten with
    unparseable settings before the tool runs.  Config loss is fatal to
    the whole tool invocation (there is no per-record boundary to
    quarantine at), so it surfaces as a failed *event* in the batch
    layer rather than a quarantined record.

``transient``
    Target: ``P4:ST01l`` — a (process, trace) pair.  Raises
    :class:`~repro.errors.TransientToolError` inside the tool's
    per-record loop on attempts ``1..count``; attempt ``count + 1``
    succeeds.  With ``count >= max_attempts`` the record exhausts its
    retries and is quarantined.

``crash``
    Target: ``P3:ST01`` — a (process, record) pair.  Raises
    :class:`WorkerCrashError` (deliberately *not* a
    :class:`~repro.errors.ReproError`: it models the worker dying, not
    a pipeline-domain failure) inside the parallel-loop unit on
    attempts ``1..count``.  The runtime's chunk isolation catches it,
    resubmits the poisoned item, and continues the rest of the chunk.

Attempt numbers come from :func:`current_attempt`, set by the retry
wrappers — so "fires on attempts 1..count" is a pure function of the
plan, independent of scheduling, chunking or backend.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import PipelineError, TransientToolError
from repro.resilience.retry import RetryPolicy

#: Valid fault kinds.
FILE_KINDS = ("truncate-v1", "garble-v1")
CONFIG_KINDS = ("drop-config", "garble-config")
UNIT_KINDS = ("transient", "crash")
ALL_KINDS = FILE_KINDS + CONFIG_KINDS + UNIT_KINDS

#: The line written over (or appended by) a garble fault — chosen so a
#: numeric data block, a header field and a config line all fail to
#: parse, and so re-garbling is a visible no-op.
GARBLE_LINE = "##FAULT-INJECTED##"


class WorkerCrashError(RuntimeError):
    """An injected worker death (kill/except) inside a parallel unit.

    A plain :class:`RuntimeError` on purpose: pipeline code catches
    :class:`~repro.errors.ReproError` at its boundaries, and a crashed
    worker must *not* be absorbed by those handlers — only the chunk
    isolation of the parallel runtime may catch it.
    """


#: The retry attempt (1-based) the current unit of work is executing.
_ATTEMPT: ContextVar[int] = ContextVar("repro_resilience_attempt", default=1)


def current_attempt() -> int:
    """The 1-based attempt number of the unit of work in progress."""
    return _ATTEMPT.get()


@contextmanager
def attempt_scope(attempt: int) -> Iterator[None]:
    """Declare that the enclosed unit body is running attempt N."""
    token = _ATTEMPT.set(int(attempt))
    try:
        yield
    finally:
        _ATTEMPT.reset(token)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what kind, aimed at what, firing how often."""

    kind: str
    target: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise PipelineError(f"unknown fault kind {self.kind!r} (one of {ALL_KINDS})")
        if self.count < 1:
            raise PipelineError(f"fault count must be >= 1, got {self.count}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "target": self.target, "count": self.count}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=str(data["kind"]),
            target=str(data["target"]),
            count=int(data.get("count", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, JSON-serializable set of faults plus the retry policy.

    The seed drives the deterministic jitter of the retry backoff and
    the shape of file corruption, so replaying one plan file reproduces
    the run bit-identically.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()
    policy: RetryPolicy = field(default_factory=RetryPolicy)

    # -- queries --------------------------------------------------------

    def unit_count(self, kind: str, process: str, record: str) -> int:
        """Total fire count of ``kind`` faults aimed at process:record."""
        target = f"{process}:{record}"
        return sum(f.count for f in self.faults if f.kind == kind and f.target == target)

    def file_specs(self, name: str) -> list[FaultSpec]:
        """File-corruption faults aimed at artifact ``name``."""
        return [f for f in self.faults if f.kind in FILE_KINDS and f.target == name]

    def config_spec(self, process: str) -> FaultSpec | None:
        """The config fault aimed at tool ``process``, if any."""
        for f in self.faults:
            if f.kind in CONFIG_KINDS and f.target == process:
                return f
        return None

    def _digest(self, *parts: str) -> int:
        payload = "|".join((str(self.seed),) + parts).encode()
        return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")

    # -- application ----------------------------------------------------

    def should_fire(self, kind: str, process: str, record: str,
                    attempt: int | None = None) -> bool:
        """Whether a transient/crash fault fires on this attempt.

        Fires on attempts ``1..count`` — a pure function of the plan,
        so every implementation and backend observes the same failures
        and performs the same number of retries.
        """
        count = self.unit_count(kind, process, record)
        if count == 0:
            return False
        return (attempt if attempt is not None else current_attempt()) <= count

    def raise_transient(self, process: str, record: str) -> bool:
        """Raise the injected transient fault if one fires now.

        Returns ``True`` when a matching spec exists but is spent (so
        callers can count the recovery), ``False`` when the record is
        untargeted.
        """
        if self.unit_count("transient", process, record) == 0:
            return False
        if self.should_fire("transient", process, record):
            raise TransientToolError(
                f"injected transient fault at {process}:{record} "
                f"(attempt {current_attempt()})"
            )
        return True

    def raise_crash(self, process: str, record: str) -> bool:
        """Raise the injected worker crash if one fires now."""
        if self.unit_count("crash", process, record) == 0:
            return False
        if self.should_fire("crash", process, record):
            raise WorkerCrashError(
                f"injected worker crash at {process}:{record} "
                f"(attempt {current_attempt()})"
            )
        return True

    def corrupt_file(self, path: Path) -> bool:
        """Apply any file fault aimed at ``path.name``.  Idempotent.

        Returns ``True`` when the file's bytes actually changed (the
        hook callers use to count each injection exactly once across
        repeated applications).
        """
        changed = False
        for spec in self.file_specs(Path(path).name):
            if spec.kind == "truncate-v1":
                changed |= truncate_lines(path, self._digest("truncate", spec.target))
            else:
                changed |= garble_line(path, self._digest("garble", spec.target))
        return changed

    def corrupt_config(self, folder: Path, process: str) -> str | None:
        """Apply the config fault aimed at tool ``process``, if any.

        Returns the fault kind applied (``None`` when untargeted).
        """
        spec = self.config_spec(process)
        if spec is None:
            return None
        from repro.core.tools import TOOL_CONFIG

        cfg = Path(folder) / TOOL_CONFIG
        if spec.kind == "drop-config":
            cfg.unlink(missing_ok=True)
        else:
            # Point every known key at garbage so both tools fail
            # loudly instead of silently falling back to defaults.
            cfg.write_text(
                f"PARAMS {GARBLE_LINE}\nTAPER {GARBLE_LINE}\nMAXPERIOD {GARBLE_LINE}\n"
            )
        return spec.kind

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
            "policy": self.policy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            faults=tuple(FaultSpec.from_dict(f) for f in data.get("faults") or []),
            policy=RetryPolicy.from_dict(data.get("policy") or {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Path | str) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.to_json() + "\n")

    # -- generation -----------------------------------------------------

    @classmethod
    def randomized(
        cls,
        seed: int,
        stations: list[str],
        *,
        n_faults: int = 2,
        policy: RetryPolicy | None = None,
    ) -> "FaultPlan":
        """A seeded random plan over record-level fault kinds.

        Used by the chaos soak: only kinds with a per-record quarantine
        boundary are drawn (config faults are event-fatal by design and
        tested separately), and transient counts stay within and beyond
        ``max_attempts`` so both recovery and exhaustion are exercised.
        """
        policy = policy or RetryPolicy()
        rng = random.Random(seed)
        comps = ("l", "t", "v")
        faults: list[FaultSpec] = []
        for _ in range(max(1, n_faults)):
            station = rng.choice(sorted(stations))
            comp = rng.choice(comps)
            trace = f"{station}{comp}"
            kind = rng.choice(("truncate-v1", "garble-v1", "transient", "crash"))
            if kind in FILE_KINDS:
                ext = rng.choice((".v1", ".v2"))
                faults.append(FaultSpec(kind=kind, target=f"{trace}{ext}"))
            elif kind == "transient":
                process = rng.choice(("P4", "P7", "P13"))
                count = rng.randint(1, policy.max_attempts)
                faults.append(FaultSpec(kind=kind, target=f"{process}:{trace}", count=count))
            else:
                count = rng.randint(1, policy.max_attempts)
                faults.append(FaultSpec(kind=kind, target=f"P3:{station}", count=count))
        return cls(seed=seed, faults=tuple(faults), policy=policy)


def truncate_lines(path: Path | str, digest: int) -> bool:
    """Truncate ``path`` to a small seeded line count.  Idempotent.

    The kept count (2-7 lines) always cuts into the header or the data
    block of every record format, so the next read raises a
    :class:`~repro.errors.FormatError`.  A file already at or below the
    target length is left alone, which is what makes re-application
    (e.g. on a fresh temp-folder link to the same artifact) stable.
    """
    path = Path(path)
    if not path.exists():
        return False
    lines = path.read_text().splitlines()
    keep = 2 + digest % 6
    if len(lines) <= keep:
        return False
    _replace_text(path, "\n".join(lines[:keep]) + "\n")
    return True


def garble_line(path: Path | str, digest: int) -> bool:
    """Overwrite one seeded line of ``path`` with garbage.  Idempotent.

    The victim line index is derived from the seed alone (clamped to
    the file), so applying the fault twice rewrites the same line with
    the same bytes — a no-op the caller can detect.
    """
    path = Path(path)
    if not path.exists():
        return False
    lines = path.read_text().splitlines()
    if not lines:
        return False
    victim = digest % min(len(lines), 24)
    if lines[victim] == GARBLE_LINE:
        return False
    lines[victim] = GARBLE_LINE
    _replace_text(path, "\n".join(lines) + "\n")
    return True


def _replace_text(path: Path, text: str) -> None:
    """Give ``path`` new contents through a sibling file and a rename.

    A staged temp-folder input is a hard link to the workspace's own
    artifact; writing into it would corrupt ``work/`` as well.  The
    rename points the folder's name at a fresh file and leaves the
    linked original alone.
    """
    sibling = path.with_name(path.name + ".fault")
    sibling.write_text(text)
    os.replace(sibling, path)
