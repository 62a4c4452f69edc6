"""Elastic response spectra (process P16 — the pipeline's hot spot).

A single-degree-of-freedom oscillator with natural period T and
damping ratio zeta obeys ``x'' + 2 zeta w x' + w^2 x = -a_g(t)`` where
``a_g`` is the corrected ground acceleration.  The response spectrum is
the peak response over a grid of (T, zeta) pairs.

Three solvers are provided:

``nigam_jennings``
    Exact for piecewise-linear excitation (Nigam & Jennings, 1969).
    The one-step state transition is computed from the closed-form
    matrix exponential; the two-state recursion is collapsed to a
    second-order scalar difference equation and evaluated with the
    compiled filter behind ``scipy.signal.lfilter`` (exact initial
    conditions) — O(D) per oscillator.

``duhamel``
    Direct evaluation of the Duhamel convolution integral — O(D^2)
    per oscillator.  This is the formulation behind the legacy
    Fortran's O(9000 * N * D^2) complexity quoted in the paper (§VI-B)
    and is kept both as a cross-check and so benchmarks can reproduce
    the original cost shape.

``frequency_domain``
    Transfer-function solution via FFT, used as an independent
    cross-check in the test suite.

The paper's oscillator grid (the "9000" in the complexity bound) is
reproduced by :func:`paper_grid`: 1800 log-spaced periods from 0.02 s
to 20 s times 5 damping ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.signal._sigtools import _linear_filter

from repro.errors import SignalError

#: Damping ratios (fraction of critical) the observatory reports.
DEFAULT_DAMPINGS: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10, 0.20)


def default_periods(count: int = 100, t_min: float = 0.02, t_max: float = 20.0) -> np.ndarray:
    """Log-spaced oscillator periods spanning the paper's 0.02–20 s band."""
    if count < 2:
        raise SignalError(f"period count must be >= 2, got {count}")
    if not 0 < t_min < t_max:
        raise SignalError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")
    return np.geomspace(t_min, t_max, count)


@dataclass
class ResponseSpectrumConfig:
    """Oscillator grid and solver selection for a response-spectrum run."""

    periods: np.ndarray = field(default_factory=default_periods)
    dampings: tuple[float, ...] = DEFAULT_DAMPINGS
    method: str = "nigam_jennings"
    #: Use pseudo-spectral SV/SA (w*SD, w^2*SD) instead of true peaks.
    pseudo: bool = False

    def __post_init__(self) -> None:
        self.periods = np.asarray(self.periods, dtype=float)
        if (
            self.periods.size == 0
            or not np.all(np.isfinite(self.periods))
            or np.any(self.periods <= 0)
        ):
            raise SignalError(f"periods must be finite, positive and non-empty, got {self.periods}")
        if not all(0 <= d < 1 for d in self.dampings):
            raise SignalError(f"damping ratios must be in [0, 1), got {self.dampings}")
        if self.method not in ("nigam_jennings", "duhamel", "frequency_domain"):
            raise SignalError(f"unknown response-spectrum method {self.method!r}")

    @property
    def combos(self) -> int:
        """Number of (period, damping) oscillators evaluated."""
        return self.periods.size * len(self.dampings)


def paper_grid() -> ResponseSpectrumConfig:
    """The legacy grid: 1800 periods x 5 dampings = 9000 oscillators."""
    return ResponseSpectrumConfig(periods=default_periods(1800))


@dataclass(frozen=True)
class ResponseSpectrum:
    """Peak SDOF responses over the oscillator grid.

    ``sa``/``sv``/``sd`` have shape (n_dampings, n_periods); SA is the
    peak absolute (total) acceleration in the input units, SV the peak
    relative velocity, SD the peak relative displacement (input units
    times s and s^2 respectively).
    """

    periods: np.ndarray
    dampings: np.ndarray
    sa: np.ndarray
    sv: np.ndarray
    sd: np.ndarray


def sdof_coefficients(
    period: float, damping: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact one-step discretization of the SDOF equation.

    Returns ``(A, B0, B1)`` such that the state ``z = (x, v)`` evolves
    as ``z[k+1] = A z[k] + B0 p[k] + B1 p[k+1]`` for piecewise-linear
    forcing ``p = -a_g``:

    - ``A = exp(F dt)`` (closed form for the damped oscillator),
    - ``B0 = (M0 - M1) G`` and ``B1 = M1 G`` with ``M0 = F^-1 (A - I)``
      and ``M1 = M0 - F^-1 A + F^-2 (A - I) / dt``,

    where ``F = [[0, 1], [-w^2, -2 zeta w]]`` and ``G = (0, 1)^T``.
    These are the Nigam–Jennings coefficients in matrix form.
    """
    if not (np.isfinite(period) and np.isfinite(dt)) or period <= 0 or dt <= 0:
        raise SignalError(f"period and dt must be finite and positive, got {period}, {dt}")
    if not 0 <= damping < 1:
        raise SignalError(f"damping ratio must be in [0, 1), got {damping}")
    w = 2.0 * np.pi / period
    wd = w * np.sqrt(1.0 - damping * damping)
    e = np.exp(-damping * w * dt)
    s = np.sin(wd * dt)
    c = np.cos(wd * dt)
    # Closed-form matrix exponential of F over one step.
    a11 = e * (c + damping * w * s / wd)
    a12 = e * s / wd
    a21 = -e * w * w * s / wd
    a22 = e * (c - damping * w * s / wd)
    A = np.array([[a11, a12], [a21, a22]])
    F = np.array([[0.0, 1.0], [-w * w, -2.0 * damping * w]])
    Finv = np.linalg.inv(F)
    eye = np.eye(2)
    M0 = Finv @ (A - eye)
    M1 = M0 - Finv @ A + (Finv @ Finv @ (A - eye)) / dt
    # G = (0, 1)^T, so M G is just the second column of M.
    B0 = (M0 - M1)[:, 1]
    B1 = M1[:, 1]
    return A, B0, B1


def _scalar_recursions(
    A: np.ndarray, B0: np.ndarray, B1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse the 2-state recursion to two scalar IIR filters.

    Returns ``(den, num_x, num_v)`` where each response series is
    ``lfilter(num, den, p)`` with initial conditions handled by
    :func:`_initial_state`.  Derivation: annihilate the companion
    state using the Cayley–Hamilton relation of ``A``.
    """
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    den = np.array([1.0, -tr, det])
    num_x = np.array(
        [
            B1[0],
            B0[0] + A[0, 1] * B1[1] - A[1, 1] * B1[0],
            A[0, 1] * B0[1] - A[1, 1] * B0[0],
        ]
    )
    num_v = np.array(
        [
            B1[1],
            B0[1] + A[1, 0] * B1[0] - A[0, 0] * B1[1],
            A[1, 0] * B0[0] - A[0, 0] * B0[1],
        ]
    )
    return den, num_x, num_v


def _initial_state(A: np.ndarray, B1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct-form-II-transposed initial states enforcing rest at k=0.

    The scalar recursion sees ``p[k+1]`` through its ``num[0]`` tap, so
    with zero filter history ``lfilter`` would start the oscillator
    moving at k=0.  The states ``p[0] * zi`` subtract the homogeneous
    evolution of the spurious state ``B1 * p[0]``, making the filtered
    output equal the exact at-rest solution (x[0] = v[0] = 0).  Returned
    without the ``p[0]`` factor, so one oscillator's filter serves
    every record.
    """
    zi_x = np.array([-B1[0], A[1, 1] * B1[0] - A[0, 1] * B1[1]])
    zi_v = np.array([-B1[1], A[0, 0] * B1[1] - A[1, 0] * B1[0]])
    return zi_x, zi_v


@dataclass(frozen=True)
class _OscillatorFilters:
    """The IIR filters of every oscillator of one (dt, periods, dampings) grid.

    Row ``k`` belongs to oscillator ``(k // n_periods, k % n_periods)``
    (damping-major, the spectrum's layout): ``den``/``num_x``/``num_v``
    from :func:`_scalar_recursions`, ``zi_x``/``zi_v`` from
    :func:`_initial_state`.
    """

    den: np.ndarray
    num_x: np.ndarray
    num_v: np.ndarray
    zi_x: np.ndarray
    zi_v: np.ndarray


#: Grids whose filters one process keeps.  An event's traces share one
#: (dt, grid) — EV-NOV18 has two dts — so a few grids cover a run.
_FILTER_CACHE_GRIDS = 8


def _oscillator_filters(dt: float, periods, dampings) -> _OscillatorFilters:
    """The grid's filters, built on the first call and cached per process.

    Keyed on the exact bytes of the floats, so a cached filter is the
    one a fresh :func:`sdof_coefficients` call would give.
    """
    return _filters_for(
        np.float64(dt).tobytes(),
        np.asarray(periods, dtype=float).tobytes(),
        np.asarray(dampings, dtype=float).tobytes(),
    )


@lru_cache(maxsize=_FILTER_CACHE_GRIDS)
def _filters_for(dt_key: bytes, periods_key: bytes, dampings_key: bytes) -> _OscillatorFilters:
    (dt,) = np.frombuffer(dt_key)
    rows = []
    for damping in np.frombuffer(dampings_key):
        for period in np.frombuffer(periods_key):
            A, B0, B1 = sdof_coefficients(period, damping, dt)
            rows.append((*_scalar_recursions(A, B0, B1), *_initial_state(A, B1)))
    columns = [np.array(column) for column in zip(*rows)]
    for column in columns:
        column.flags.writeable = False  # shared by every caller in the process
    return _OscillatorFilters(*columns)


def _record(acc: np.ndarray) -> np.ndarray:
    """A non-empty record as floats."""
    acc = np.asarray(acc, dtype=float)
    if acc.size == 0:
        raise SignalError("cannot compute the response of an empty record")
    return acc


def _peak_grids(config: ResponseSpectrumConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empty (dampings, periods) grids for SD, SV and SA."""
    shape = (len(config.dampings), config.periods.size)
    return np.empty(shape), np.empty(shape), np.empty(shape)


def _spectrum(config: ResponseSpectrumConfig, sd, sv, sa) -> ResponseSpectrum:
    """The spectrum of ``config``'s grid with the given peaks."""
    return ResponseSpectrum(config.periods.copy(), np.asarray(config.dampings, dtype=float), sa, sv, sd)


def _filtered(num: np.ndarray, den: np.ndarray, p: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """``lfilter(num, den, p, zi=zi)[0]`` without ``lfilter``'s per-call wrapper.

    ``_linear_filter`` is the compiled direct-form-II-transposed routine
    ``lfilter`` runs when ``den`` has more than one tap: same bits.
    """
    return _linear_filter(num, den, p, -1, zi)[0]


def _peak(a: np.ndarray) -> float:
    """``np.max(np.abs(a))`` without the temporary; ``abs`` turns -0.0 into +0.0."""
    return abs(max(a.max(), -a.min()))


def _history(
    p: np.ndarray, filters: _OscillatorFilters, k: int, period: float, damping: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Response histories (x, v, total acceleration) of oscillator ``k``."""
    den = filters.den[k]
    x = _filtered(filters.num_x[k], den, p, p[0] * filters.zi_x[k])
    v = _filtered(filters.num_v[k], den, p, p[0] * filters.zi_v[k])
    w = 2.0 * np.pi / period
    # Total acceleration from the equation of motion:
    # x'' + a_g = -2 zeta w v - w^2 x.
    total_acc = -2.0 * damping * w * v - w * w * x
    return x, v, total_acc


def sdof_response_history(
    acc: np.ndarray, dt: float, period: float, damping: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full response histories (x, v, total acceleration) of one oscillator.

    Exact for piecewise-linear ground acceleration; used by tests and
    by callers who need time histories rather than spectra.
    """
    p = -_record(acc)
    return _history(p, _oscillator_filters(dt, (period,), (damping,)), 0, period, damping)


def response_spectrum_nigam_jennings(
    acc: np.ndarray, dt: float, config: ResponseSpectrumConfig
) -> ResponseSpectrum:
    """Response spectrum via the Nigam–Jennings recursion (O(D) each).

    The loop of :func:`_history` and ``np.max(np.abs(.))`` peaks with
    its per-oscillator overhead taken out, bit for bit: the initial
    states of the whole grid in two products, the total acceleration
    built from :func:`_history`'s products in one reused buffer, and
    no velocity filter in ``pseudo`` mode, where it is unused.
    """
    p = -_record(acc)
    filters = _oscillator_filters(dt, config.periods, config.dampings)
    zi_x = p[0] * filters.zi_x
    zi_v = p[0] * filters.zi_v
    n_t = config.periods.size
    sd, sv, sa = _peak_grids(config)
    total_acc, stiffness = np.empty_like(p), np.empty_like(p)
    for di, zeta in enumerate(config.dampings):
        for ti, period in enumerate(config.periods):
            k = di * n_t + ti
            den = filters.den[k]
            x = _filtered(filters.num_x[k], den, p, zi_x[k])
            w = 2.0 * np.pi / period
            sd[di, ti] = _peak(x)
            if config.pseudo:
                sv[di, ti] = w * sd[di, ti]
                sa[di, ti] = w * w * sd[di, ti]
                continue
            v = _filtered(filters.num_v[k], den, p, zi_v[k])
            sv[di, ti] = _peak(v)
            np.multiply(-2.0 * zeta * w, v, out=total_acc)
            np.multiply(w * w, x, out=stiffness)
            np.subtract(total_acc, stiffness, out=total_acc)
            sa[di, ti] = _peak(total_acc)
    return _spectrum(config, sd, sv, sa)


def response_spectrum_duhamel(
    acc: np.ndarray, dt: float, config: ResponseSpectrumConfig
) -> ResponseSpectrum:
    """Response spectrum via direct Duhamel convolution (O(D^2) each).

    ``x(t_n) = -(dt / wd) * sum_k a_g(t_k) e^{-z w (t_n - t_k)}
    sin(wd (t_n - t_k))`` — the rectangular-rule convolution the legacy
    Fortran evaluated, retained for its cost shape and as a numerical
    cross-check (it converges to the exact solution as dt -> 0).
    Velocity is obtained with the companion kernel; SA from the
    equation of motion.
    """
    acc = _record(acc)
    n = acc.size
    t = np.arange(n) * dt
    sd, sv, sa = _peak_grids(config)
    for di, zeta in enumerate(config.dampings):
        for ti, period in enumerate(config.periods):
            w = 2.0 * np.pi / period
            wd = w * np.sqrt(1.0 - zeta * zeta)
            decay = np.exp(-zeta * w * t)
            hx = decay * np.sin(wd * t) / wd
            # dx/dt of the displacement kernel.
            hv = decay * (np.cos(wd * t) - zeta * w * np.sin(wd * t) / wd)
            # np.convolve is the direct O(D^2) summation.
            x = -dt * np.convolve(acc, hx)[:n]
            v = -dt * np.convolve(acc, hv)[:n]
            ta = -2.0 * zeta * w * v - w * w * x
            sd[di, ti] = np.max(np.abs(x))
            if config.pseudo:
                sv[di, ti] = w * sd[di, ti]
                sa[di, ti] = w * w * sd[di, ti]
            else:
                sv[di, ti] = np.max(np.abs(v))
                sa[di, ti] = np.max(np.abs(ta))
    return _spectrum(config, sd, sv, sa)


def response_spectrum_frequency_domain(
    acc: np.ndarray, dt: float, config: ResponseSpectrumConfig
) -> ResponseSpectrum:
    """Response spectrum via the SDOF transfer function and the FFT.

    The record is zero-padded with a quiet tail long enough for the
    slowest oscillator to ring down, avoiding circular-convolution
    wrap-around.
    """
    acc = _record(acc)
    n = acc.size
    max_period = float(np.max(config.periods))
    min_damping = max(min(config.dampings), 0.01)
    # Ring-down to ~0.1% needs ~7 time constants of the lightest mode.
    tail = int(np.ceil(7.0 * max_period / (2.0 * np.pi * min_damping) / dt))
    m = int(2 ** np.ceil(np.log2(n + tail)))
    spec = np.fft.rfft(acc, m)
    freqs = np.fft.rfftfreq(m, dt)
    omega = 2.0 * np.pi * freqs
    sd, sv, sa = _peak_grids(config)
    for di, zeta in enumerate(config.dampings):
        for ti, period in enumerate(config.periods):
            w = 2.0 * np.pi / period
            hx = -1.0 / (w * w - omega * omega + 2j * zeta * w * omega)
            x = np.fft.irfft(spec * hx, m)[:n]
            v = np.fft.irfft(spec * hx * 1j * omega, m)[:n]
            ta = -2.0 * zeta * w * v - w * w * x
            sd[di, ti] = np.max(np.abs(x))
            if config.pseudo:
                sv[di, ti] = w * sd[di, ti]
                sa[di, ti] = w * w * sd[di, ti]
            else:
                sv[di, ti] = np.max(np.abs(v))
                sa[di, ti] = np.max(np.abs(ta))
    return _spectrum(config, sd, sv, sa)


_METHODS = {
    "nigam_jennings": response_spectrum_nigam_jennings,
    "duhamel": response_spectrum_duhamel,
    "frequency_domain": response_spectrum_frequency_domain,
}


def response_spectrum(
    acc: np.ndarray, dt: float, config: ResponseSpectrumConfig | None = None
) -> ResponseSpectrum:
    """Compute the response spectrum with the method the config selects."""
    if config is None:
        config = ResponseSpectrumConfig()
    return _METHODS[config.method](acc, dt, config)
