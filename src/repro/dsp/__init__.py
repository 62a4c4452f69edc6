"""Digital signal processing substrate for strong-motion records.

This package reimplements, in vectorized NumPy, the numerical kernels
the legacy Fortran pipeline relied on:

- :mod:`repro.dsp.window`   — Hamming/Hann windows and cosine tapers.
- :mod:`repro.dsp.fft`      — radix-2 + Bluestein FFT (self-contained),
  with a NumPy-backed fast path used by default.
- :mod:`repro.dsp.fir`      — windowed-sinc band-pass design (the
  paper's "Hamming band-pass filter") and FFT convolution.
- :mod:`repro.dsp.detrend`  — mean/linear/polynomial baseline removal.
- :mod:`repro.dsp.integrate`— acceleration → velocity → displacement.
- :mod:`repro.dsp.peak`     — PGA/PGV/PGD extraction.
"""

from repro.dsp.window import (
    hamming,
    hann,
    cosine_taper,
    apply_taper,
)
from repro.dsp.fft import (
    fft,
    ifft,
    rfft,
    irfft,
    fft_radix2,
    ifft_radix2,
    fft_bluestein,
    fft_pure,
    ifft_pure,
    next_pow2,
    rfft_frequencies,
)
from repro.dsp.fir import (
    BandPassSpec,
    design_bandpass,
    fir_filter,
    hamming_bandpass,
    filter_delay_samples,
)
from repro.dsp.detrend import (
    remove_mean,
    remove_linear_trend,
    remove_polynomial_trend,
    baseline_correct,
)
from repro.dsp.integrate import (
    integrate_trapezoid,
    differentiate_central,
    acceleration_to_velocity,
    velocity_to_displacement,
    acceleration_to_motion,
)
from repro.dsp.peak import (
    peak_amplitude,
    peak_index,
    peak_ground_motion,
    PeakValues,
)
from repro.dsp.intensity import (
    IntensityMeasures,
    arias_intensity,
    bracketed_duration,
    cumulative_absolute_velocity,
    husid_curve,
    intensity_measures,
    rms_acceleration,
    significant_duration,
)

__all__ = [
    "hamming",
    "hann",
    "cosine_taper",
    "apply_taper",
    "fft",
    "ifft",
    "rfft",
    "irfft",
    "fft_radix2",
    "ifft_radix2",
    "fft_bluestein",
    "fft_pure",
    "ifft_pure",
    "next_pow2",
    "rfft_frequencies",
    "BandPassSpec",
    "design_bandpass",
    "fir_filter",
    "hamming_bandpass",
    "filter_delay_samples",
    "remove_mean",
    "remove_linear_trend",
    "remove_polynomial_trend",
    "baseline_correct",
    "integrate_trapezoid",
    "differentiate_central",
    "acceleration_to_velocity",
    "velocity_to_displacement",
    "acceleration_to_motion",
    "peak_amplitude",
    "peak_index",
    "peak_ground_motion",
    "PeakValues",
    "IntensityMeasures",
    "arias_intensity",
    "bracketed_duration",
    "cumulative_absolute_velocity",
    "husid_curve",
    "intensity_measures",
    "rms_acceleration",
    "significant_duration",
]
