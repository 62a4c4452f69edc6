"""The Nigam–Jennings solver gives the old per-oscillator loop's bits.

``response_spectrum_nigam_jennings`` calls the compiled filter behind
``lfilter`` directly, takes peaks as ``max(a.max(), -a.min())`` and
builds the total acceleration in a reused buffer.  Every spectrum here
is compared with :func:`tests.spectra.reference.nigam_jennings_loop`
as raw float64 bits, so a -0.0 against a +0.0 (which ``==`` accepts)
fails.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.spectra import response as response_module
from repro.spectra.response import (
    DEFAULT_DAMPINGS,
    ResponseSpectrumConfig,
    default_periods,
    response_spectrum,
    response_spectrum_nigam_jennings,
    sdof_response_history,
)
from tests.spectra.reference import nigam_jennings_loop


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_same_bits(spectrum, want):
    for name, expected in zip(("sd", "sv", "sa"), want):
        got = getattr(spectrum, name)
        assert np.array_equal(_bits(got), _bits(expected)), name


def _config(n_periods=12, dampings=DEFAULT_DAMPINGS, pseudo=False):
    return ResponseSpectrumConfig(
        periods=default_periods(n_periods), dampings=dampings, pseudo=pseudo
    )


@pytest.mark.parametrize("seed, n, dt", [(1, 1500, 0.01), (2, 700, 0.005), (3, 41, 0.02)])
@pytest.mark.parametrize("pseudo", [False, True])
def test_random_records_match_the_loop(seed, n, dt, pseudo):
    rng = np.random.default_rng(seed)
    acc = rng.normal(size=n) * np.hanning(n) * 10.0 ** rng.integers(-3, 3)
    config = _config(pseudo=pseudo)
    spectrum = response_spectrum_nigam_jennings(acc, dt, config)
    _assert_same_bits(spectrum, nigam_jennings_loop(acc, dt, config))


def test_dispatcher_default_method_is_the_same_solver():
    acc = np.random.default_rng(4).normal(size=300)
    config = _config(6, (0.05,))
    _assert_same_bits(response_spectrum(acc, 0.01, config), nigam_jennings_loop(acc, 0.01, config))


@pytest.mark.parametrize("pseudo", [False, True])
def test_zero_record_peaks_are_positive_zero(pseudo):
    # p = -0.0 everywhere, so every history's max and min are -0.0;
    # np.abs made the loop's peaks +0.0, and so must the fast path.
    config = _config(pseudo=pseudo)
    spectrum = response_spectrum_nigam_jennings(np.zeros(200), 0.01, config)
    for name in ("sd", "sv", "sa"):
        values = getattr(spectrum, name)
        assert not np.any(np.signbit(values)), name
        assert np.all(values == 0.0), name
    _assert_same_bits(spectrum, nigam_jennings_loop(np.zeros(200), 0.01, config))


@pytest.mark.parametrize("where", [0, 50, 199])
def test_nan_record_propagates_nan(where):
    acc = np.random.default_rng(5).normal(size=200)
    acc[where] = np.nan
    config = _config(8)
    spectrum = response_spectrum_nigam_jennings(acc, 0.01, config)
    want = nigam_jennings_loop(acc, 0.01, config)
    for name, expected in zip(("sd", "sv", "sa"), want):
        got = getattr(spectrum, name)
        assert np.array_equal(np.isnan(got), np.isnan(expected)), name
        assert np.isnan(got).any(), name
        assert not np.any(np.signbit(got)), name
        assert np.array_equal(got, expected, equal_nan=True), name


@pytest.mark.parametrize("value", [0.0, -3.5, 2.0])
def test_one_sample_record(value):
    config = _config(5)
    spectrum = response_spectrum_nigam_jennings(np.array([value]), 0.01, config)
    _assert_same_bits(spectrum, nigam_jennings_loop(np.array([value]), 0.01, config))


def test_peak_matches_max_abs_on_edge_cases():
    peak = response_module._peak
    cases = [
        np.array([-0.0, -0.0]),
        np.array([0.0, -0.0]),
        np.array([-5.0, 3.0]),
        np.array([-1.0, -2.0]),
        np.array([1.0, 4.0]),
        np.array([1.0, np.nan, -3.0]),
        np.array([-np.inf, 2.0]),
    ]
    for a in cases:
        got = np.float64(peak(a))
        want = np.max(np.abs(a))
        assert np.signbit(got) == np.signbit(want), a
        assert np.array_equal(got, want, equal_nan=True), a


def test_compiled_filter_is_lfilter_on_the_grid_filters():
    # The pin behind the fast path: the routine it calls returns
    # lfilter's bits for every oscillator filter of a grid.
    p = -np.random.default_rng(6).normal(size=900)
    filters = response_module._oscillator_filters(0.01, default_periods(10), DEFAULT_DAMPINGS)
    for k in range(filters.den.shape[0]):
        for num, zi in ((filters.num_x[k], filters.zi_x[k]), (filters.num_v[k], filters.zi_v[k])):
            state = p[0] * zi
            want, _ = lfilter(num, filters.den[k], p, zi=state)
            got = response_module._filtered(num, filters.den[k], p, state)
            assert np.array_equal(_bits(got), _bits(want))
            assert np.array_equal(state, p[0] * zi)  # the state is not written


def test_history_matches_lfilter():
    acc = np.random.default_rng(8).normal(size=500)
    period, zeta, dt = 0.7, 0.05, 0.01
    x, v, ta = sdof_response_history(acc, dt, period, zeta)
    filters = response_module._oscillator_filters(dt, (period,), (zeta,))
    p = -acc
    want_x, _ = lfilter(filters.num_x[0], filters.den[0], p, zi=p[0] * filters.zi_x[0])
    want_v, _ = lfilter(filters.num_v[0], filters.den[0], p, zi=p[0] * filters.zi_v[0])
    w = 2.0 * np.pi / period
    for got, want in ((x, want_x), (v, want_v), (ta, -2.0 * zeta * w * want_v - w * w * want_x)):
        assert np.array_equal(_bits(got), _bits(want))
