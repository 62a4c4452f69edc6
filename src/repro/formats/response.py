"""R (response spectrum) files.

A ``<station><comp>.r`` file stores the elastic response spectra of the
definitive corrected acceleration: spectral acceleration, pseudo-
velocity and displacement over a grid of oscillator periods, one block
per damping ratio.  Process P16 (the pipeline's dominant cost) writes
these; P18 plots them and P19 feeds them to the GEM exporter.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import DataBlockError
from repro.formats.common import (
    Header,
    as_path,
    block_line_count,
    format_fixed_block,
    parse_fixed_block,
    parse_header,
    read_lines,
)

_QUANTITIES = ("SA", "SV", "SD")


@dataclass
class ResponseRecord:
    """Elastic response spectra of one component.

    ``sa``/``sv``/``sd`` have shape ``(n_dampings, n_periods)``: SA in
    gal, SV in cm/s, SD in cm.  ``dampings`` are fractions of critical
    (e.g. 0.05).
    """

    header: Header
    periods: np.ndarray
    dampings: np.ndarray
    sa: np.ndarray
    sv: np.ndarray
    sd: np.ndarray

    def __post_init__(self) -> None:
        self.periods = np.asarray(self.periods, dtype=float)
        self.dampings = np.asarray(self.dampings, dtype=float)
        shape = (self.dampings.shape[0], self.periods.shape[0])
        for name in _QUANTITIES:
            arr = np.asarray(getattr(self, name.lower()), dtype=float)
            if arr.shape != shape:
                raise DataBlockError(
                    f"response record {self.header.station}{self.header.component}: "
                    f"{name} shape {arr.shape} != {shape}"
                )
            setattr(self, name.lower(), arr)
        self.header.npts = int(self.periods.shape[0])

    def quantity(self, name: str) -> np.ndarray:
        """Return SA/SV/SD by name (case-insensitive)."""
        key = name.lower()
        if key not in ("sa", "sv", "sd"):
            raise DataBlockError(f"unknown response quantity {name!r}")
        return getattr(self, key)


def component_r_name(station: str, comp: str) -> str:
    """File name of a response spectrum file: ``<station><comp>.r``."""
    return f"{station}{comp}.r"


def write_response(path: Path | str, record: ResponseRecord) -> None:
    """Write a response spectrum file."""
    parts = record.header.lines("RESPONSE SPECTRA")
    parts.append("DATA")
    parts.append(f"SERIES-BLOCK: PERIOD {record.periods.shape[0]}")
    parts.append(format_fixed_block(record.periods).rstrip("\n"))
    parts.append(f"SERIES-BLOCK: DAMPING {record.dampings.shape[0]}")
    parts.append(format_fixed_block(record.dampings).rstrip("\n"))
    for d_idx in range(record.dampings.shape[0]):
        for name in _QUANTITIES:
            values = record.quantity(name)[d_idx]
            parts.append(f"SERIES-BLOCK: {name}{d_idx} {values.shape[0]}")
            parts.append(format_fixed_block(values).rstrip("\n"))
    as_path(path).write_text("\n".join(parts) + "\n")


def read_response(path: Path | str, *, process: str | None = None) -> ResponseRecord:
    """Read a response spectrum file."""
    lines = read_lines(path, process=process)
    header, i = parse_header(lines, "RESPONSE SPECTRA", path=str(path))
    blocks: dict[str, np.ndarray] = {}
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
        blocks[name] = parse_fixed_block(lines[i : i + nlines], count, path=str(path))
        i += nlines
    if "PERIOD" not in blocks or "DAMPING" not in blocks:
        raise DataBlockError(f"{path}: missing PERIOD or DAMPING block")
    periods = blocks["PERIOD"]
    dampings = blocks["DAMPING"]
    arrays: dict[str, np.ndarray] = {}
    for name in _QUANTITIES:
        rows = []
        for d_idx in range(dampings.shape[0]):
            key = f"{name}{d_idx}"
            if key not in blocks:
                raise DataBlockError(f"{path}: missing block {key}")
            if blocks[key].shape[0] != periods.shape[0]:
                raise DataBlockError(
                    f"{path}: block {key} has {blocks[key].shape[0]} values, "
                    f"expected {periods.shape[0]} (one per PERIOD)"
                )
            rows.append(blocks[key])
        arrays[name] = np.vstack(rows)
    return ResponseRecord(
        header=header,
        periods=periods,
        dampings=dampings,
        sa=arrays["SA"],
        sv=arrays["SV"],
        sd=arrays["SD"],
    )
