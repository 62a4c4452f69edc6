"""Filter-parameter files.

Two generations exist in a pipeline run:

- ``filter.par`` — written by P2 with the default corners used for the
  first correction pass (P4);
- ``filter_corrected.par`` — written by P10 with the record-specific
  FPL/FSL corners recovered from the velocity Fourier spectra, consumed
  by the definitive correction (P13).

Both use the same format: a DEFAULT line plus zero or more per-
(station, component) override lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.dsp.fir import BandPassSpec
from repro.errors import FormatError
from repro.formats.common import as_path, read_lines


@dataclass
class FilterParams:
    """Default band-pass corners plus per-component overrides.

    ``overrides`` maps ``(station, component)`` to the corner spec that
    the definitive correction must use for that trace.
    """

    default: BandPassSpec
    overrides: dict[tuple[str, str], BandPassSpec] = field(default_factory=dict)

    def spec_for(self, station: str, comp: str) -> BandPassSpec:
        """Corners for one trace: its override if present, else the default."""
        return self.overrides.get((station, comp), self.default)

    def set_override(self, station: str, comp: str, spec: BandPassSpec) -> None:
        """Record the definitive corners for one trace."""
        self.overrides[(station, comp)] = spec


def _spec_fields(spec: BandPassSpec) -> str:
    return (
        f"{spec.f_stop_low:.6f} {spec.f_pass_low:.6f} "
        f"{spec.f_pass_high:.6f} {spec.f_stop_high:.6f}"
    )


def _parse_spec(tokens: list[str], path: str) -> BandPassSpec:
    try:
        fsl, fpl, fph, fsh = (float(tok) for tok in tokens)
    except ValueError as exc:
        raise FormatError(f"{path}: bad filter corner values {tokens}") from exc
    return BandPassSpec(fsl, fpl, fph, fsh)


def write_filter_params(path: Path | str, params: FilterParams) -> None:
    """Write a filter-parameter file."""
    parts = ["OANT FILTER PARAMETERS"]
    parts.append(f"DEFAULT {_spec_fields(params.default)}")
    for (station, comp) in sorted(params.overrides):
        spec = params.overrides[(station, comp)]
        parts.append(f"TRACE {station} {comp} {_spec_fields(spec)}")
    as_path(path).write_text("\n".join(parts) + "\n")


def read_filter_params(path: Path | str, *, process: str | None = None) -> FilterParams:
    """Read a filter-parameter file."""
    path = as_path(path)
    lines = read_lines(path, process=process)
    if not lines or lines[0].strip() != "OANT FILTER PARAMETERS":
        raise FormatError(f"{path}: not a filter parameter file")
    default: BandPassSpec | None = None
    overrides: dict[tuple[str, str], BandPassSpec] = {}
    for line in lines[1:]:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "DEFAULT":
            if len(tokens) != 5:
                raise FormatError(f"{path}: malformed DEFAULT line {line!r}")
            default = _parse_spec(tokens[1:], str(path))
        elif tokens[0] == "TRACE":
            if len(tokens) != 7:
                raise FormatError(f"{path}: malformed TRACE line {line!r}")
            overrides[(tokens[1], tokens[2])] = _parse_spec(tokens[3:], str(path))
        else:
            raise FormatError(f"{path}: unknown parameter line {line!r}")
    if default is None:
        raise FormatError(f"{path}: missing DEFAULT corners")
    return FilterParams(default=default, overrides=overrides)
