"""Emulations of the legacy Fortran programs.

The paper could not modify two of the original programs, so its full
parallelization runs *multiple instances concurrently within temporary
folders* (§VI).  To make that strategy meaningful here, the same
programs are reimplemented with the same shape: a tool is a function of
a single directory — it discovers its inputs by extension inside that
directory, reads its numeric settings from a ``tool.cfg`` file, and
writes its outputs next to them.  No Python-level arguments carry data;
everything goes through files, exactly like running the binary with a
working directory.

Tools provided:

- :func:`correction_tool` — the band-pass correction program behind
  P4 and P13 (they differ only in which parameter file is staged);
- :func:`fourier_tool` — the Fourier-spectrum program behind P7.
"""

from __future__ import annotations

from pathlib import Path

from repro.dsp.detrend import baseline_correct
from repro.dsp.fir import BandPassSpec, design_bandpass, fir_filter
from repro.dsp.integrate import acceleration_to_motion
from repro.dsp.peak import peak_ground_motion
from repro.errors import MissingArtifactError, PipelineError
from repro.formats.common import read_text
from repro.formats.params import read_filter_params
from repro.formats.fourier import FourierRecord, write_fourier
from repro.formats.v1 import ComponentRecord, read_component_v1
from repro.formats.v2 import CorrectedRecord, read_v2, write_v2
from repro.resilience.runtime import current_runtime
from repro.spectra.fourier import motion_fourier_spectra

TOOL_CONFIG = "tool.cfg"

#: tool.cfg key naming the pipeline process a tool invocation serves
#: (``P4``/``P13``/``P7``).  Stage plans set it so fault targeting and
#: failure reports name the right process without new tool arguments.
PROCESS_KEY = "PROCESS"


def write_tool_config(folder: Path | str, **settings: object) -> None:
    """Write the tool.cfg settings file the legacy tools read."""
    lines = [f"{key.upper()} {value}" for key, value in sorted(settings.items())]
    (Path(folder) / TOOL_CONFIG).write_text("\n".join(lines) + "\n")


def read_tool_config(folder: Path | str) -> dict[str, str]:
    """Read tool.cfg; a missing file is a missing input, not a default.

    The legacy binaries abort when their settings file is absent — and
    silently falling back to an empty map here once turned a vanished
    config into corrected records filtered with the wrong parameters.
    """
    path = Path(folder) / TOOL_CONFIG
    if not path.exists():
        raise MissingArtifactError(str(path))
    settings: dict[str, str] = {}
    for line in read_text(path, PipelineError).splitlines():
        tokens = line.split(maxsplit=1)
        if len(tokens) == 2:
            settings[tokens[0].upper()] = tokens[1]
    return settings


def correct_component(record: ComponentRecord, spec: BandPassSpec) -> CorrectedRecord:
    """The correction computation shared by P4 and P13.

    Baseline-correct the raw acceleration, apply the Hamming band-pass,
    integrate to velocity and displacement, and extract the peaks.
    """
    dt = record.header.dt
    corrected = baseline_correct(record.acceleration)
    taps = design_bandpass(spec, dt)
    corrected = fir_filter(corrected, taps)
    acc, vel, disp = acceleration_to_motion(corrected, dt)
    peaks = peak_ground_motion(acc, vel, disp, dt)
    return CorrectedRecord(
        header=record.header.copy_for(),
        acceleration=acc,
        velocity=vel,
        displacement=disp,
        peaks=peaks,
        f_stop_low=spec.f_stop_low,
        f_pass_low=spec.f_pass_low,
        f_pass_high=spec.f_pass_high,
        f_stop_high=spec.f_stop_high,
    )


def max_line(record: CorrectedRecord) -> str:
    """The fixed-format maxima line archived in the maxvals files."""
    p = record.peaks
    return (
        f"{record.header.station} {record.header.component} "
        f"{p.pga:15.7E} {p.pga_time:10.4f} "
        f"{p.pgv:15.7E} {p.pgv_time:10.4f} "
        f"{p.pgd:15.7E} {p.pgd_time:10.4f}"
    )


def correction_tool(folder: Path | str) -> list[str]:
    """The legacy correction program.

    Contract: the folder contains a filter-parameter file (named by the
    ``PARAMS`` key of tool.cfg, default ``filter.par``) and any number
    of single-component ``*.v1`` files.  For each, a ``*.v2`` corrected
    record and a ``*.max`` maxima line are written beside it.  Returns
    the processed trace names (sorted), mirroring the binary's log.

    Under an active resilience runtime each record runs through
    :meth:`~repro.resilience.runtime.ResilienceRuntime.run_record`: a
    record that fails permanently is reported and *skipped* — the rest
    of the folder still processes, mirroring the real program's
    per-file error handling.  Missing tool.cfg or parameter files stay
    fatal: there is nothing record-scoped to continue with.
    """
    folder = Path(folder)
    settings = read_tool_config(folder)
    params_name = settings.get("PARAMS", "filter.par")
    process = settings.get(PROCESS_KEY, "P4")
    params_path = folder / params_name
    if not params_path.exists():
        raise PipelineError(f"correction tool: no parameter file {params_path}")
    params = read_filter_params(params_path)
    runtime = current_runtime()
    processed: list[str] = []
    for v1_path in sorted(folder.glob("*.v1")):
        stem = v1_path.stem

        def body(v1_path: Path = v1_path, stem: str = stem) -> None:
            record = read_component_v1(v1_path)
            station, comp = record.header.station, record.header.component
            spec = params.spec_for(station, comp)
            corrected = correct_component(record, spec)
            write_v2(folder / f"{stem}.v2", corrected)
            (folder / f"{stem}.max").write_text(max_line(corrected) + "\n")

        if runtime is None:
            body()
            processed.append(stem)
        else:
            runtime.apply_file_faults(v1_path)
            if runtime.run_record(process, stem, body):
                processed.append(stem)
    return processed


def fourier_tool(folder: Path | str) -> list[str]:
    """The legacy Fourier-spectrum program.

    Contract: the folder contains ``*.v2`` corrected records; for each,
    a ``*.f`` Fourier-spectra file is written.  tool.cfg keys ``TAPER``
    and ``MAXPERIOD`` set the taper fraction and period band.  Failure
    handling matches :func:`correction_tool`: per-record under an
    active resilience runtime, fatal for unusable settings.
    """
    folder = Path(folder)
    settings = read_tool_config(folder)
    process = settings.get(PROCESS_KEY, "P7")
    try:
        taper = float(settings.get("TAPER", "0.05"))
        max_period = float(settings.get("MAXPERIOD", "20.0"))
    except ValueError as exc:
        raise PipelineError(f"fourier tool: unparseable {TOOL_CONFIG} setting: {exc}")
    runtime = current_runtime()
    processed: list[str] = []
    for v2_path in sorted(folder.glob("*.v2")):
        stem = v2_path.stem

        def body(v2_path: Path = v2_path, stem: str = stem) -> None:
            record = read_v2(v2_path)
            periods, fa, fv, fd = motion_fourier_spectra(
                record.acceleration,
                record.velocity,
                record.displacement,
                record.header.dt,
                taper=taper,
                max_period=max_period,
            )
            fourier = FourierRecord(
                header=record.header.copy_for(),
                periods=periods,
                acceleration=fa,
                velocity=fv,
                displacement=fd,
            )
            write_fourier(folder / f"{stem}.f", fourier)

        if runtime is None:
            body()
            processed.append(stem)
        else:
            runtime.apply_file_faults(v2_path)
            if runtime.run_record(process, stem, body):
                processed.append(stem)
    return processed
