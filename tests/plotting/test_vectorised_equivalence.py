"""The vectorised decimation and polyline formatting equal their loops."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plotting.charts import _decimate_for_plot
from repro.plotting.ps import PAGE_HEIGHT, PAGE_WIDTH, PostScriptCanvas, _lineto_lines

from tests.plotting.reference import decimate_loop, polyline_fstring

SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0]


@st.composite
def long_series(draw):
    n = draw(st.integers(2_001, 40_000))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    # Rounding leaves many equal values in a bucket: argmin/argmax ties.
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        y = np.round(y, decimals)
    specials = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIALS)), max_size=6))
    for i, value in specials:
        y[i] = value
    x = np.arange(n) * draw(st.sampled_from([0.01, 0.005, 1.0]))
    return x, y


def assert_same_decimation(x, y, max_points):
    got = _decimate_for_plot(x, y, max_points)
    want = decimate_loop(x, y, max_points)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        # Bitwise, so -0.0 and NaN payload positions count too.
        assert g.tobytes() == w.tobytes()


class TestDecimationEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(long_series(), st.sampled_from([2, 3, 7, 999, 1000, 1001, 2000, 2001]))
    def test_matches_loop(self, series, max_points):
        assert_same_decimation(*series, max_points)

    @pytest.mark.parametrize("n", [2_001, 7_300, 12_910, 32_795])
    def test_all_ties(self, n):
        x = np.arange(float(n))
        assert_same_decimation(x, np.zeros(n), 2000)
        assert_same_decimation(x, np.where(np.arange(n) % 2, 0.0, -0.0), 2000)

    def test_nan_falls_back_to_first_nan(self):
        x = np.arange(5_000.0)
        y = np.sin(x)
        y[[17, 18, 4_000]] = np.nan
        assert_same_decimation(x, y, 2000)
        _, dy = _decimate_for_plot(x, y, 2000)
        assert np.isnan(dy).sum() == 4  # two buckets, min and max both NaN

    @pytest.mark.parametrize("max_points", [-1, 0, 1])
    def test_degenerate_budgets(self, max_points):
        x = np.arange(10.0)
        assert_same_decimation(x, x, max_points)


def coordinates():
    page = st.floats(0.0, max(PAGE_WIDTH, PAGE_HEIGHT), allow_nan=False)
    cents = st.integers(0, 99_999)
    return st.one_of(
        page,
        st.integers(0, 1_000).map(float),
        # Exact and nearly exact .xx5 ties.
        cents.map(lambda c: (c + 0.5) / 100),
        st.tuples(cents, st.sampled_from([-1, 1]), st.integers(1, 8)).map(
            lambda t: (t[0] + 0.5) / 100 + t[1] * 10.0 ** -(6 + t[2])
        ),
        st.sampled_from([0.0, -0.0, PAGE_WIDTH, PAGE_HEIGHT, 999.99, 999.995, 1000.0]),
        # Outside the digit tables: negative, huge and non-finite.
        st.floats(-1e3, 0.0, allow_nan=False),
        st.floats(1e3, 1e300, allow_nan=False),
        st.sampled_from([np.nan, np.inf, -np.inf, -1e-9, 1e-9, -0.004, 1.5e308]),
    )


class TestPolylineEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(coordinates(), coordinates()), min_size=2, max_size=200))
    def test_matches_fstrings(self, points):
        canvas = PostScriptCanvas()
        canvas.polyline(points)
        canvas.polyline(np.array(points))
        assert canvas._body == [polyline_fstring(points)] * 2

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(coordinates(), coordinates()), min_size=1, max_size=80))
    def test_digit_rows_match_fstrings(self, points):
        # The digit path directly, whatever the polyline length.
        want = "".join(f"{x:.2f} {y:.2f} lineto\n" for x, y in points)
        assert _lineto_lines(np.array(points, dtype=float)) == want

    def test_integer_pairs_and_long_arrays(self, rng):
        points = [(i, (i * 37) % 792) for i in range(500)]
        canvas = PostScriptCanvas()
        canvas.polyline(points)
        xy = rng.uniform(0.0, PAGE_WIDTH, size=(3_000, 2))
        canvas.polyline(xy)
        assert canvas._body == [polyline_fstring(points), polyline_fstring(xy.tolist())]
