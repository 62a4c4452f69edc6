"""Spectral analysis of strong-motion records.

- :mod:`repro.spectra.fourier` — Fourier amplitude spectra of the
  corrected acceleration/velocity/displacement (process P7).
- :mod:`repro.spectra.inflection` — the FPL/FSL corner search in the
  velocity Fourier spectrum (process P10, Fig. 3 of the paper).
- :mod:`repro.spectra.response` — elastic response spectra by three
  methods: Nigam–Jennings (exact for piecewise-linear excitation,
  O(D) per oscillator), Duhamel convolution (the legacy O(D^2)
  formulation the paper's complexity bound describes) and a
  frequency-domain solver used as a cross-check.
"""

from repro.spectra.fourier import (
    fourier_amplitude_spectrum,
    motion_fourier_spectra,
    smooth_log,
)
from repro.spectra.inflection import (
    InflectionResult,
    find_inflection_point,
    corners_from_inflection,
)
from repro.spectra.response import (
    ResponseSpectrumConfig,
    ResponseSpectrum,
    sdof_coefficients,
    sdof_response_history,
    response_spectrum,
    response_spectrum_nigam_jennings,
    response_spectrum_duhamel,
    response_spectrum_frequency_domain,
    paper_grid,
)

__all__ = [
    "fourier_amplitude_spectrum",
    "motion_fourier_spectra",
    "smooth_log",
    "InflectionResult",
    "find_inflection_point",
    "corners_from_inflection",
    "ResponseSpectrumConfig",
    "ResponseSpectrum",
    "sdof_coefficients",
    "sdof_response_history",
    "response_spectrum",
    "response_spectrum_nigam_jennings",
    "response_spectrum_duhamel",
    "response_spectrum_frequency_domain",
    "paper_grid",
]
