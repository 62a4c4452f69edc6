"""Unit tests for the response-spectrum solvers (process P16's core)."""

import sys

import numpy as np
import pytest

from repro.errors import SignalError
from repro.parallel.omp import parallel_for
from repro.spectra import response as response_module
from repro.spectra.response import (
    DEFAULT_DAMPINGS,
    ResponseSpectrumConfig,
    default_periods,
    paper_grid,
    response_spectrum,
    response_spectrum_duhamel,
    response_spectrum_frequency_domain,
    response_spectrum_nigam_jennings,
    sdof_coefficients,
    sdof_response_history,
)


@pytest.fixture(scope="module")
def record():
    rng = np.random.default_rng(7)
    dt = 0.01
    acc = rng.normal(size=3000)
    acc *= np.hanning(3000)
    return acc, dt


def small_config(**kwargs):
    # Periods start at 20*dt: solver agreement below ~10 samples per
    # cycle is discretization-limited (each method treats the excitation
    # between samples differently).
    defaults = dict(periods=np.geomspace(0.2, 5.0, 8), dampings=(0.05,))
    defaults.update(kwargs)
    return ResponseSpectrumConfig(**defaults)


class TestConfig:
    def test_default_periods_span(self):
        periods = default_periods()
        assert periods[0] == pytest.approx(0.02)
        assert periods[-1] == pytest.approx(20.0)
        assert np.all(np.diff(periods) > 0)

    def test_paper_grid_is_9000_oscillators(self):
        config = paper_grid()
        assert config.combos == 9000

    def test_rejects_bad_periods(self):
        with pytest.raises(SignalError):
            ResponseSpectrumConfig(periods=np.array([-1.0, 2.0]))

    def test_rejects_bad_damping(self):
        with pytest.raises(SignalError):
            ResponseSpectrumConfig(dampings=(1.5,))

    def test_rejects_unknown_method(self):
        with pytest.raises(SignalError):
            ResponseSpectrumConfig(method="magic")

    def test_rejects_bad_period_count(self):
        with pytest.raises(SignalError):
            default_periods(1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_periods(self, bad):
        with pytest.raises(SignalError):
            ResponseSpectrumConfig(periods=[0.1, bad, 1.0])

    def test_rejects_nan_damping(self):
        with pytest.raises(SignalError):
            ResponseSpectrumConfig(dampings=(0.05, np.nan))

    def test_frequency_domain_rejects_zero_damping(self):
        # The undamped transfer function divides by zero at the
        # oscillator frequency; the default grid includes zeta = 0.
        with pytest.raises(SignalError, match="above 0"):
            ResponseSpectrumConfig(periods=default_periods(100), method="frequency_domain")
        config = ResponseSpectrumConfig(method="frequency_domain", dampings=(0.02, 0.05))
        assert config.dampings == (0.02, 0.05)


class TestSdofCoefficients:
    def test_matrix_exponential_identity_at_zero_dt(self):
        # As dt -> 0, A -> I.
        A, B0, B1 = sdof_coefficients(1.0, 0.05, 1e-7)
        assert np.allclose(A, np.eye(2), atol=1e-5)

    def test_undamped_energy_conservation(self):
        # zeta = 0: A is a rotation, |det A| = 1.
        A, _, _ = sdof_coefficients(0.5, 0.0, 0.01)
        assert abs(np.linalg.det(A)) == pytest.approx(1.0, abs=1e-12)

    def test_damped_contraction(self):
        A, _, _ = sdof_coefficients(0.5, 0.1, 0.01)
        assert abs(np.linalg.det(A)) < 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(SignalError):
            sdof_coefficients(-1.0, 0.05, 0.01)
        with pytest.raises(SignalError):
            sdof_coefficients(1.0, 1.0, 0.01)

    @pytest.mark.parametrize("period, dt", [
        (np.nan, 0.01), (np.inf, 0.01), (1.0, np.nan), (1.0, np.inf), (np.nan, np.inf),
    ])
    def test_rejects_non_finite_period_or_dt(self, period, dt):
        # NaN used to leak numpy's LinAlgError; inf dt returned an all-NaN A.
        with pytest.raises(SignalError):
            sdof_coefficients(period, 0.05, dt)
        with pytest.raises(SignalError):
            sdof_response_history(np.ones(10), dt, period, 0.05)


class TestResponseHistory:
    def test_matches_explicit_recursion(self, record):
        acc, dt = record
        A, B0, B1 = sdof_coefficients(0.7, 0.05, dt)
        p = -acc
        state = np.zeros(2)
        xs = np.zeros(len(acc))
        vs = np.zeros(len(acc))
        for k in range(len(acc) - 1):
            state = A @ state + B0 * p[k] + B1 * p[k + 1]
            xs[k + 1], vs[k + 1] = state
        x, v, _ = sdof_response_history(acc, dt, 0.7, 0.05)
        assert np.allclose(x, xs, atol=1e-10 * np.abs(xs).max())
        assert np.allclose(v, vs, atol=1e-10 * np.abs(vs).max())

    def test_starts_at_rest(self, record):
        acc, dt = record
        x, v, _ = sdof_response_history(acc, dt, 1.0, 0.05)
        assert x[0] == pytest.approx(0.0, abs=1e-15)
        assert v[0] == pytest.approx(0.0, abs=1e-15)

    def test_at_rest_even_with_nonzero_first_sample(self):
        dt = 0.01
        acc = np.full(100, 2.0)  # jumps to 2 at t=0
        x, v, _ = sdof_response_history(acc, dt, 1.0, 0.05)
        assert x[0] == pytest.approx(0.0, abs=1e-15)

    def test_static_limit(self):
        # Constant acceleration: x -> -a/w^2 as the transient damps out.
        dt = 0.01
        T, z = 0.5, 0.5
        w = 2 * np.pi / T
        acc = np.full(5000, 3.0)
        x, _, _ = sdof_response_history(acc, dt, T, z)
        assert x[-1] == pytest.approx(-3.0 / w**2, rel=1e-3)

    def test_total_acceleration_relation(self, record):
        acc, dt = record
        T, z = 0.8, 0.05
        w = 2 * np.pi / T
        x, v, ta = sdof_response_history(acc, dt, T, z)
        assert np.allclose(ta, -2 * z * w * v - w * w * x)

    def test_rejects_empty(self):
        with pytest.raises(SignalError):
            sdof_response_history(np.array([]), 0.01, 1.0, 0.05)

    @pytest.mark.parametrize("kind", ["step", "ramp"])
    @pytest.mark.parametrize(
        "period, damping", [(0.7, 0.05), (0.2, 0.0), (1.5, 0.2), (3.0, 0.7)]
    )
    def test_exact_for_piecewise_linear_input(self, kind, period, damping):
        # Nigam-Jennings integrates piecewise-linear excitation exactly,
        # so a step a(t) = a0 and a ramp a(t) = r*t must match the
        # closed-form response from rest of x'' + 2zwx' + w^2 x = -a(t)
        # to rounding.
        dt, n, amp = 0.01, 4000, 1.7
        t = np.arange(n) * dt
        w = 2 * np.pi / period
        wd = w * np.sqrt(1 - damping**2)
        decay = np.exp(-damping * w * t)
        cos, sin = np.cos(wd * t), np.sin(wd * t)
        if kind == "step":
            acc = np.full(n, amp)
            exact = -(amp / w**2) * (1 - decay * (cos + damping * w / wd * sin))
        else:
            acc = amp * t
            # Particular solution A*t + B plus the homogeneous part that
            # brings x(0) = x'(0) = 0.
            a_, b_ = -amp / w**2, 2 * damping * amp / w**3
            c2 = (-damping * w * b_ - a_) / wd
            exact = a_ * t + b_ + decay * (-b_ * cos + c2 * sin)
        peak = np.abs(exact).max()
        x, _, _ = sdof_response_history(acc, dt, period, damping)
        assert np.abs(x - exact).max() <= 1e-10 * peak
        config = ResponseSpectrumConfig(periods=[period], dampings=(damping,))
        spectrum = response_spectrum_nigam_jennings(acc, dt, config)
        assert abs(spectrum.sd[0, 0] - peak) <= 1e-10 * peak


class TestMethodAgreement:
    def test_nj_vs_frequency_domain(self, record):
        acc, dt = record
        config = small_config()
        nj = response_spectrum_nigam_jennings(acc, dt, config)
        fd = response_spectrum_frequency_domain(acc, dt, config)
        assert np.allclose(nj.sd, fd.sd, rtol=0.05)
        assert np.allclose(nj.sv, fd.sv, rtol=0.05)
        assert np.allclose(nj.sa, fd.sa, rtol=0.05)

    def test_nj_vs_duhamel(self, record):
        acc, dt = record
        config = small_config()
        nj = response_spectrum_nigam_jennings(acc, dt, config)
        du = response_spectrum_duhamel(acc, dt, config)
        assert np.allclose(nj.sd, du.sd, rtol=0.05)

    def test_dispatcher_selects_method(self, record):
        acc, dt = record
        nj = response_spectrum(acc, dt, small_config(method="nigam_jennings"))
        du = response_spectrum(acc, dt, small_config(method="duhamel"))
        assert nj.sd.shape == du.sd.shape

    def test_default_config(self, record):
        acc, dt = record
        spectrum = response_spectrum(acc[:500], dt)
        assert spectrum.sa.shape == (len(DEFAULT_DAMPINGS), 100)


class TestSpectralPhysics:
    def test_short_period_sa_approaches_pga(self, record):
        # A very stiff oscillator rides the ground: SA(T->0) -> PGA.
        acc, dt = record
        config = ResponseSpectrumConfig(periods=np.array([0.02]), dampings=(0.05,))
        spectrum = response_spectrum_nigam_jennings(acc, dt, config)
        pga = np.max(np.abs(acc))
        assert spectrum.sa[0, 0] == pytest.approx(pga, rel=0.1)

    def test_long_period_sd_approaches_pgd(self):
        # A very soft oscillator stays put: SD(T->inf) -> peak ground
        # displacement.
        dt = 0.01
        t = np.arange(6000) * dt
        acc = np.sin(2 * np.pi * 2.0 * t) * np.hanning(6000)
        from repro.dsp.integrate import acceleration_to_motion

        _, _, disp = acceleration_to_motion(acc, dt, detrend=False)
        pgd = np.max(np.abs(disp))
        config = ResponseSpectrumConfig(periods=np.array([30.0]), dampings=(0.05,))
        spectrum = response_spectrum_nigam_jennings(acc, dt, config)
        assert spectrum.sd[0, 0] == pytest.approx(pgd, rel=0.15)

    def test_damping_reduces_response(self, record):
        acc, dt = record
        config = ResponseSpectrumConfig(
            periods=np.geomspace(0.2, 2.0, 5), dampings=(0.02, 0.05, 0.20)
        )
        spectrum = response_spectrum_nigam_jennings(acc, dt, config)
        assert np.all(spectrum.sd[0] >= spectrum.sd[1])
        assert np.all(spectrum.sd[1] >= spectrum.sd[2])

    def test_resonance_amplification(self):
        # Harmonic excitation at the oscillator's period: response grows
        # far beyond the static response.
        dt = 0.005
        T = 0.5
        t = np.arange(8000) * dt
        acc = np.sin(2 * np.pi / T * t)
        config = ResponseSpectrumConfig(periods=np.array([T]), dampings=(0.02,))
        spectrum = response_spectrum_nigam_jennings(acc, dt, config)
        w = 2 * np.pi / T
        static = 1.0 / w**2
        # Steady-state amplification at resonance = 1/(2 zeta) = 25.
        assert spectrum.sd[0, 0] > 15 * static

    def test_pseudo_quantities(self, record):
        acc, dt = record
        config = small_config(pseudo=True)
        spectrum = response_spectrum_nigam_jennings(acc, dt, config)
        w = 2 * np.pi / config.periods
        assert np.allclose(spectrum.sv[0], w * spectrum.sd[0])
        assert np.allclose(spectrum.sa[0], w**2 * spectrum.sd[0])

    def test_zero_damping_supported(self, record):
        acc, dt = record
        config = small_config(dampings=(0.0,))
        spectrum = response_spectrum_nigam_jennings(acc, dt, config)
        assert np.all(np.isfinite(spectrum.sd))

    def test_scaling_linearity(self, record):
        acc, dt = record
        config = small_config()
        s1 = response_spectrum_nigam_jennings(acc, dt, config)
        s2 = response_spectrum_nigam_jennings(3.0 * acc, dt, config)
        assert np.allclose(s2.sd, 3.0 * s1.sd, rtol=1e-10)


def _per_call_spectrum(acc, dt, config):
    """The per-oscillator solver as it was before filters were cached:
    fresh coefficients, recursions and initial states for every call."""
    from scipy.signal import lfilter

    p = -np.asarray(acc, dtype=float)
    shape = (len(config.dampings), config.periods.size)
    sd, sv, sa = np.empty(shape), np.empty(shape), np.empty(shape)
    for di, zeta in enumerate(config.dampings):
        for ti, period in enumerate(config.periods):
            A, B0, B1 = sdof_coefficients(period, zeta, dt)
            den, num_x, num_v = response_module._scalar_recursions(A, B0, B1)
            zi_x = p[0] * np.array([-B1[0], A[1, 1] * B1[0] - A[0, 1] * B1[1]])
            zi_v = p[0] * np.array([-B1[1], A[0, 0] * B1[1] - A[1, 0] * B1[0]])
            x, _ = lfilter(num_x, den, p, zi=zi_x)
            v, _ = lfilter(num_v, den, p, zi=zi_v)
            w = 2.0 * np.pi / period
            ta = -2.0 * zeta * w * v - w * w * x
            sd[di, ti] = np.max(np.abs(x))
            sv[di, ti] = np.max(np.abs(v))
            sa[di, ti] = np.max(np.abs(ta))
    return sd, sv, sa


def _records():
    # Two dts interleaved, as EV-NOV18's stations are (0.01 and 0.005 s).
    rng = np.random.default_rng(11)
    return [(rng.normal(size=n) * np.hanning(n), dt)
            for n, dt in ((900, 0.01), (1200, 0.005), (700, 0.01), (1000, 0.005))]


_CACHE_CONFIG = ResponseSpectrumConfig(
    periods=default_periods(24), dampings=DEFAULT_DAMPINGS
)


def _spectrum_arrays(record):
    acc, dt = record
    spectrum = response_spectrum_nigam_jennings(acc, dt, _CACHE_CONFIG)
    return spectrum.sd, spectrum.sv, spectrum.sa


class TestFilterCache:
    """Cached per-(dt, grid) filters give the per-call solver's bits."""

    def _assert_identical(self, got, record):
        want = _per_call_spectrum(*record, _CACHE_CONFIG)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_cold_cache(self):
        for record in _records():
            response_module._filters_for.cache_clear()
            self._assert_identical(_spectrum_arrays(record), record)

    def test_warm_cache_and_interleaved_dts(self):
        response_module._filters_for.cache_clear()
        records = _records()
        for record in records + records:
            self._assert_identical(_spectrum_arrays(record), record)
        info = response_module._filters_for.cache_info()
        assert info.currsize == 2 and info.hits == len(records) * 2 - 2

    def test_thread_backend(self):
        # More workers than cores and a short switch interval, so threads
        # race on the cold cache.
        response_module._filters_for.cache_clear()
        records = _records() * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = parallel_for(_spectrum_arrays, records, backend="thread", num_workers=4)
        finally:
            sys.setswitchinterval(interval)
        for got, record in zip(results, records):
            self._assert_identical(got, record)
        assert response_module._filters_for.cache_info().currsize == 2

    def test_history_matches_per_call_solver(self, record):
        acc, dt = record
        config = ResponseSpectrumConfig(periods=np.array([0.7]), dampings=(0.05,))
        x, _, _ = sdof_response_history(acc, dt, 0.7, 0.05)
        sd, _, _ = _per_call_spectrum(acc, dt, config)
        assert np.max(np.abs(x)) == sd[0, 0]

    def test_cache_is_bounded(self, record):
        acc, dt = record
        response_module._filters_for.cache_clear()
        limit = response_module._FILTER_CACHE_GRIDS
        for i in range(limit + 3):
            config = ResponseSpectrumConfig(periods=np.array([0.5 + i]), dampings=(0.05,))
            response_spectrum_nigam_jennings(acc[:200], dt, config)
        info = response_module._filters_for.cache_info()
        assert info.maxsize == limit
        assert info.currsize == limit

    def test_negative_zero_damping_has_its_own_entry(self, record):
        # Keys are the floats' bytes: -0.0 and 0.0 never share filters.
        acc, dt = record
        response_module._filters_for.cache_clear()
        for zeta in (0.0, -0.0):
            config = ResponseSpectrumConfig(periods=np.array([0.5]), dampings=(zeta,))
            response_spectrum_nigam_jennings(acc[:200], dt, config)
        assert response_module._filters_for.cache_info().currsize == 2

    def test_cached_filters_are_read_only(self):
        filters = response_module._oscillator_filters(0.01, default_periods(4), (0.05,))
        with pytest.raises(ValueError):
            filters.den[0, 1] = 0.0
