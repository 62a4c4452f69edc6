"""GEM (Global Earthquake Model) input files.

Process P19 explodes each component's V2 and R files into single-series
files consumed by downstream GEM tooling: for every (station,
component) it writes six files —

- ``<s><c>2A.gem`` / ``2V`` / ``2D``: corrected acceleration, velocity
  and displacement time series (from the V2 file);
- ``<s><c>RA.gem`` / ``RV`` / ``RD``: 5%-damped SA/SV/SD response
  spectra (from the R file).

That is 18 files per station, matching the paper's "18 GEM files".
Each file is deliberately minimal: a two-line header and one fixed
block, because the GEM consumers are column readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import DataBlockError, HeaderError
from repro.formats.common import as_path, format_fixed_block, parse_fixed_block, read_lines

#: Source codes: "2" = V2 time series, "R" = response spectrum.
GEM_SOURCES: tuple[str, str] = ("2", "R")

#: Quantity codes: acceleration, velocity, displacement.
GEM_QUANTITIES: tuple[str, str, str] = ("A", "V", "D")


@dataclass
class GemSeries:
    """One GEM series: abscissa metadata plus a single value column.

    For time series, ``abscissa`` is the sample interval dt; for
    response spectra the values are paired with the period grid emitted
    in the companion block.
    """

    station: str
    component: str
    source: str
    quantity: str
    abscissa: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.source not in GEM_SOURCES:
            raise HeaderError(f"GEM source must be one of {GEM_SOURCES}, got {self.source!r}")
        if self.quantity not in GEM_QUANTITIES:
            raise HeaderError(
                f"GEM quantity must be one of {GEM_QUANTITIES}, got {self.quantity!r}"
            )
        self.abscissa = np.asarray(self.abscissa, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.abscissa.shape != self.values.shape:
            raise DataBlockError(
                f"GEM series {self.station}{self.component}{self.source}{self.quantity}: "
                "abscissa and values must have equal shape"
            )


def gem_name(station: str, comp: str, source: str, quantity: str) -> str:
    """File name of a GEM series: ``<station><comp><source><quantity>.gem``."""
    return f"{station}{comp}{source}{quantity}.gem"


def write_gem(path: Path | str, series: GemSeries) -> None:
    """Write a GEM series file."""
    n = series.values.shape[0]
    parts = [
        f"GEM {series.station} {series.component} {series.source} {series.quantity} {n}",
        "ABSCISSA VALUE",
    ]
    interleaved = np.empty(2 * n)
    interleaved[0::2] = series.abscissa
    interleaved[1::2] = series.values
    parts.append(format_fixed_block(interleaved).rstrip("\n"))
    as_path(path).write_text("\n".join(parts) + "\n")


def read_gem(path: Path | str, *, process: str | None = None) -> GemSeries:
    """Read a GEM series file."""
    path = as_path(path)
    lines = read_lines(path, process=process)
    if len(lines) < 2 or not lines[0].startswith("GEM "):
        raise HeaderError(f"{path}: not a GEM series file")
    try:
        _, station, comp, source, quantity, count_txt = lines[0].split()
        n = int(count_txt)
    except ValueError as exc:
        raise HeaderError(f"{path}: malformed GEM banner {lines[0]!r}") from exc
    interleaved = parse_fixed_block(lines[2:], 2 * n, path=str(path))
    return GemSeries(
        station=station,
        component=comp,
        source=source,
        quantity=quantity,
        abscissa=interleaved[0::2],
        values=interleaved[1::2],
    )
