"""Micro-benchmarks of the numerical kernels.

Not a paper artifact per se, but pins the cost hierarchy the paper's
stage analysis rests on: the response-spectrum solver dominates, the
Duhamel formulation shows its O(D^2) scaling against Nigam–Jennings'
O(D), and the FFT/filter kernels are cheap by comparison.
"""

import numpy as np
import pytest

from repro.dsp.fft import fft_pure, rfft
from repro.dsp.fir import DEFAULT_BANDPASS, design_bandpass, fir_filter
from repro.spectra.response import (
    ResponseSpectrumConfig,
    default_periods,
    response_spectrum_duhamel,
    response_spectrum_nigam_jennings,
)
from tests.spectra.reference import nigam_jennings_loop

RNG = np.random.default_rng(11)
SIGNAL_4K = RNG.normal(size=4096)
DT = 0.01
CONFIG = ResponseSpectrumConfig(periods=np.geomspace(0.1, 5.0, 10), dampings=(0.05,))


def test_bench_fft_numpy(benchmark):
    benchmark(rfft, SIGNAL_4K)


def test_bench_fft_pure(benchmark):
    benchmark(fft_pure, SIGNAL_4K)


def test_bench_filter_design(benchmark):
    benchmark(design_bandpass, DEFAULT_BANDPASS, DT)


def test_bench_filter_apply(benchmark):
    taps = design_bandpass(DEFAULT_BANDPASS, DT)
    benchmark(fir_filter, SIGNAL_4K, taps)


def test_bench_response_nigam_jennings(benchmark):
    benchmark(response_spectrum_nigam_jennings, SIGNAL_4K, DT, CONFIG)


#: One EV-NOV18-sized trace on the pipeline's default 500-oscillator grid.
TRACE_11K = RNG.normal(size=11_200) * np.hanning(11_200)
GRID_500 = ResponseSpectrumConfig(periods=default_periods(100))


@pytest.mark.parametrize("pseudo", [False, True])
def test_bench_response_p16_trace(benchmark, pseudo):
    config = ResponseSpectrumConfig(periods=GRID_500.periods, pseudo=pseudo)
    spectrum = benchmark(response_spectrum_nigam_jennings, TRACE_11K, DT, config)
    # The old per-oscillator lfilter loop, bit for bit.
    for got, want in zip((spectrum.sd, spectrum.sv, spectrum.sa), nigam_jennings_loop(TRACE_11K, DT, config)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_bench_response_duhamel_1k(benchmark):
    benchmark(response_spectrum_duhamel, SIGNAL_4K[:1024], DT, CONFIG)


def test_duhamel_quadratic_scaling():
    """The legacy formulation's O(D^2) cost shape (paper §VI-B)."""
    import time

    short = SIGNAL_4K[:512]
    long = SIGNAL_4K[:2048]
    cfg = ResponseSpectrumConfig(periods=np.array([0.5]), dampings=(0.05,))

    def clock(signal):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            response_spectrum_duhamel(signal, DT, cfg)
            best = min(best, time.perf_counter() - t0)
        return best

    ratio = clock(long) / clock(short)
    # 4x the samples -> ~16x the work for O(D^2); allow broad slack for
    # constant overheads on small sizes.
    assert ratio > 5.0


def test_nigam_jennings_linear_scaling():
    """The replacement solver is O(D) per oscillator."""
    import time

    short = SIGNAL_4K[:1024]
    long = SIGNAL_4K[:4096]
    cfg = ResponseSpectrumConfig(periods=np.geomspace(0.1, 2.0, 20), dampings=(0.05,))

    def clock(signal):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            response_spectrum_nigam_jennings(signal, DT, cfg)
            best = min(best, time.perf_counter() - t0)
        return best

    ratio = clock(long) / clock(short)
    # 4x the samples -> ~4x the work, far from quadratic.
    assert ratio < 8.0
