"""V2 (corrected) record files.

A ``<station><comp>.v2`` file stores the band-pass-corrected
acceleration together with the velocity and displacement obtained by
integration, plus the peak values and the filter corners that produced
it.  P4 writes a first (default-corner) V2 generation; P13 overwrites
it with the definitive FPL/FSL-corrected one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dsp.peak import PeakValues
from repro.errors import DataBlockError
from repro.formats.common import (
    Header,
    as_path,
    block_line_count,
    count_points as _count_points,
    format_fixed_block,
    parse_fixed_block,
    parse_header,
    read_lines,
)

_SERIES = ("ACCELERATION", "VELOCITY", "DISPLACEMENT")


@dataclass
class CorrectedRecord:
    """Corrected single-component motion with peaks and filter corners."""

    header: Header
    acceleration: np.ndarray
    velocity: np.ndarray
    displacement: np.ndarray
    peaks: PeakValues
    f_stop_low: float
    f_pass_low: float
    f_pass_high: float
    f_stop_high: float

    def __post_init__(self) -> None:
        self.acceleration = np.asarray(self.acceleration, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.displacement = np.asarray(self.displacement, dtype=float)
        n = self.acceleration.shape[0]
        if self.velocity.shape[0] != n or self.displacement.shape[0] != n:
            raise DataBlockError(
                f"corrected record {self.header.station}{self.header.component}: "
                "A/V/D series must have equal lengths"
            )
        self.header.npts = int(n)

    @property
    def series(self) -> dict[str, np.ndarray]:
        """A/V/D series keyed by their block names."""
        return {
            "ACCELERATION": self.acceleration,
            "VELOCITY": self.velocity,
            "DISPLACEMENT": self.displacement,
        }


def component_v2_name(station: str, comp: str) -> str:
    """File name of a corrected component file: ``<station><comp>.v2``."""
    return f"{station}{comp}.v2"


def write_v2(path: Path | str, record: CorrectedRecord) -> None:
    """Write a corrected V2 component file."""
    parts = record.header.lines("V2 CORRECTED")
    peaks = record.peaks
    parts.append(
        "PEAKS: "
        f"{peaks.pga:.7E} {peaks.pga_time:.4f} "
        f"{peaks.pgv:.7E} {peaks.pgv_time:.4f} "
        f"{peaks.pgd:.7E} {peaks.pgd_time:.4f}"
    )
    parts.append(
        "FILTER: "
        f"{record.f_stop_low:.6f} {record.f_pass_low:.6f} "
        f"{record.f_pass_high:.6f} {record.f_stop_high:.6f}"
    )
    parts.append("DATA")
    for name in _SERIES:
        values = record.series[name]
        parts.append(f"SERIES-BLOCK: {name} {values.shape[0]}")
        parts.append(format_fixed_block(values).rstrip("\n"))
    as_path(path).write_text("\n".join(parts) + "\n")


def read_v2(path: Path | str, *, process: str | None = None) -> CorrectedRecord:
    """Read a corrected V2 component file."""
    lines = read_lines(path, process=process)
    header_obj, peaks, filt, i = _parse_v2_header(lines, path=str(path))
    series: dict[str, np.ndarray] = {}
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if not line.startswith("SERIES-BLOCK:"):
            raise DataBlockError(f"{path}: expected SERIES-BLOCK, got {line!r}")
        try:
            _, _, payload = line.partition(":")
            name, count_txt = payload.split()
            count = int(count_txt)
        except ValueError as exc:
            raise DataBlockError(f"{path}: malformed series block header {line!r}") from exc
        nlines = block_line_count(count)
        series[name] = parse_fixed_block(lines[i : i + nlines], count, path=str(path))
        i += nlines
    missing = [name for name in _SERIES if name not in series]
    if missing:
        raise DataBlockError(f"{path}: missing series blocks {missing}")
    record = CorrectedRecord(
        header=header_obj,
        acceleration=series["ACCELERATION"],
        velocity=series["VELOCITY"],
        displacement=series["DISPLACEMENT"],
        peaks=peaks,
        f_stop_low=filt[0],
        f_pass_low=filt[1],
        f_pass_high=filt[2],
        f_stop_high=filt[3],
    )
    _count_points(3 * record.header.npts, process)
    return record


def _parse_v2_header(
    lines: list[str], *, path: str
) -> tuple[Header, PeakValues, tuple[float, float, float, float], int]:
    """Parse the V2 header plus its PEAKS and FILTER lines.

    Returns ``(header, peaks, filter_corners, index_after_DATA)`` where
    the index refers to the original ``lines`` list.
    """
    # PEAKS/FILTER appear between the banner fields and DATA; the generic
    # header parser rejects them, so pre-extract those lines.  The scan
    # stops at DATA: the data lines follow unchanged.
    peaks_line = None
    filter_line = None
    cleaned: list[str] = []
    for k, line in enumerate(lines):
        stripped = line.strip()
        if stripped == "DATA":
            cleaned.extend(lines[k:])
            break
        if stripped.startswith("PEAKS:"):
            peaks_line = stripped
        elif stripped.startswith("FILTER:"):
            filter_line = stripped
        else:
            cleaned.append(line)
    header, i = parse_header(cleaned, "V2 CORRECTED", path=path)
    if peaks_line is None or filter_line is None:
        raise DataBlockError(f"{path}: V2 file missing PEAKS or FILTER line")
    try:
        p = [float(tok) for tok in peaks_line.partition(":")[2].split()]
        f = [float(tok) for tok in filter_line.partition(":")[2].split()]
        peaks = PeakValues(p[0], p[1], p[2], p[3], p[4], p[5])
        corners = (f[0], f[1], f[2], f[3])
    except (ValueError, IndexError) as exc:
        raise DataBlockError(f"{path}: malformed PEAKS/FILTER line") from exc
    # Index i counts lines of `cleaned`; map back to the original list
    # by skipping the two extracted lines that precede DATA.
    return header, peaks, corners, i + 2
