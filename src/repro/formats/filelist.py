"""File lists and plotting metadata files.

P1 writes ``v1files.lst`` — the canonical list of raw station files the
run will process.  P5/P8/P17 derive *metadata* files from it
(``accgraph.meta``, ``fourier.meta``, ``response.meta``,
``fouriergraph.meta``, ``responsegraph.meta``): each names the stage it
drives and lists the per-trace files that stage must visit.  Every
later stage learns its work list from one of these files rather than by
globbing, exactly like the legacy implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import FormatError
from repro.formats.common import as_path, read_lines


def write_filelist(path: Path | str, names: list[str]) -> None:
    """Write a plain file list (one name per line under a banner)."""
    parts = ["OANT FILE LIST", f"COUNT {len(names)}"]
    parts.extend(names)
    as_path(path).write_text("\n".join(parts) + "\n")


def read_filelist(path: Path | str, *, process: str | None = None) -> list[str]:
    """Read a plain file list."""
    path = as_path(path)
    lines = read_lines(path, process=process)
    if not lines or lines[0].strip() != "OANT FILE LIST":
        raise FormatError(f"{path}: not a file list")
    try:
        count = int(lines[1].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: malformed COUNT line") from exc
    names = [line.strip() for line in lines[2:] if line.strip()]
    if len(names) != count:
        raise FormatError(f"{path}: COUNT says {count} names, found {len(names)}")
    return names


@dataclass
class MetadataFile:
    """A stage's work list: purpose tag plus per-entry file names.

    ``entries`` is a list of rows; each row is a tuple of file names
    the stage consumes together (e.g. the three component files of one
    station for a plotting stage).
    """

    purpose: str
    entries: list[tuple[str, ...]]


def write_metadata(path: Path | str, meta: MetadataFile) -> None:
    """Write a stage metadata file."""
    parts = ["OANT STAGE METADATA", f"PURPOSE {meta.purpose}", f"COUNT {len(meta.entries)}"]
    for entry in meta.entries:
        parts.append(" ".join(entry))
    as_path(path).write_text("\n".join(parts) + "\n")


def read_metadata(path: Path | str, *, process: str | None = None) -> MetadataFile:
    """Read a stage metadata file."""
    path = as_path(path)
    lines = read_lines(path, process=process)
    if not lines or lines[0].strip() != "OANT STAGE METADATA":
        raise FormatError(f"{path}: not a stage metadata file")
    try:
        purpose = lines[1].split(maxsplit=1)[1]
        count = int(lines[2].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: malformed metadata header") from exc
    entries = [tuple(line.split()) for line in lines[3:] if line.strip()]
    if len(entries) != count:
        raise FormatError(f"{path}: COUNT says {count} entries, found {len(entries)}")
    return MetadataFile(purpose=purpose, entries=entries)
