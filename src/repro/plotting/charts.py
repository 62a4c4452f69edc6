"""Line charts on the PostScript canvas.

A small but real charting layer: linear and logarithmic axes with tick
generation, data-to-page coordinate mapping, polyline decimation for
long records, and stacked multi-panel layout — everything the
accelerograph/Fourier/response plots need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.plotting.ps import PostScriptCanvas


@dataclass
class Axis:
    """One chart axis: data range, scale and label."""

    label: str = ""
    log: bool = False
    lo: float | None = None
    hi: float | None = None

    def resolved(self, data: np.ndarray) -> tuple[float, float]:
        """Final (lo, hi) after applying data-driven defaults."""
        finite = data[np.isfinite(data)]
        if self.log:
            finite = finite[finite > 0]
        if finite.size == 0 and (self.lo is None or self.hi is None):
            raise ReproError(f"axis {self.label!r}: no finite data to autoscale from")
        lo = self.lo if self.lo is not None else float(finite.min())
        hi = self.hi if self.hi is not None else float(finite.max())
        if self.log:
            if lo <= 0:
                lo = float(finite[finite > 0].min()) if np.any(finite > 0) else 1e-6
            if hi <= lo:
                hi = lo * 10.0
        elif hi <= lo:
            span = abs(lo) if lo else 1.0
            lo, hi = lo - 0.5 * span, lo + 0.5 * span
        return lo, hi

    def ticks(self, lo: float, hi: float, target: int = 6) -> list[float]:
        """Tick positions: decades for log axes, round steps otherwise."""
        if self.log:
            first = int(np.ceil(np.log10(lo) - 1e-9))
            last = int(np.floor(np.log10(hi) + 1e-9))
            return [10.0**e for e in range(first, last + 1)] or [lo, hi]
        raw = (hi - lo) / max(target, 2)
        mag = 10.0 ** np.floor(np.log10(raw)) if raw > 0 else 1.0
        for mult in (1.0, 2.0, 5.0, 10.0):
            step = mult * mag
            if (hi - lo) / step <= target:
                break
        first = np.ceil(lo / step) * step
        return list(np.arange(first, hi + 0.5 * step, step))


@dataclass
class Series:
    """One plotted line: x/y data, legend label and gray level."""

    x: np.ndarray
    y: np.ndarray
    label: str = ""
    gray: float = 0.0
    dash: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape:
            raise ReproError(f"series {self.label!r}: x and y must have equal shape")


def _decimate_for_plot(x: np.ndarray, y: np.ndarray, max_points: int = 2000) -> tuple[np.ndarray, np.ndarray]:
    """Min/max-preserving decimation so long records stay faithful.

    Each output bucket contributes its extreme values, preserving the
    envelope that matters in an accelerogram plot: the first minimum and
    the first maximum of ``y`` (``argmin``/``argmax``), in index order.
    """
    n = x.shape[0]
    if n <= max_points:
        return x, y
    buckets = max_points // 2
    edges = np.linspace(0, n, buckets + 1, dtype=int)
    if edges.size < 2:
        return np.asarray([]), np.asarray([])
    # n > max_points, so every bucket holds at least two points.
    starts, counts = edges[:-1], np.diff(edges)
    if np.isnan(y).any():
        # reduceat propagates NaN; argmin/argmax return its first index.
        i_min, i_max = _bucket_extremes_loop(y, edges)
    else:
        i_min = _first_index_of(y, starts, counts, np.minimum.reduceat(y, starts))
        i_max = _first_index_of(y, starts, counts, np.maximum.reduceat(y, starts))
    order = np.column_stack((np.minimum(i_min, i_max), np.maximum(i_min, i_max))).ravel()
    return np.asarray(x[order], dtype=float), np.asarray(y[order], dtype=float)


def _first_index_of(
    y: np.ndarray, starts: np.ndarray, counts: np.ndarray, extreme: np.ndarray
) -> np.ndarray:
    """Each bucket's first index holding its ``extreme`` (argmin/argmax ties)."""
    index = np.where(y == np.repeat(extreme, counts), np.arange(y.shape[0]), y.shape[0])
    return np.minimum.reduceat(index, starts)


def _bucket_extremes_loop(y: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    bounds = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    i_min = [s + int(np.argmin(y[s:e])) for s, e in bounds]
    i_max = [s + int(np.argmax(y[s:e])) for s, e in bounds]
    return np.asarray(i_min, dtype=int), np.asarray(i_max, dtype=int)


@dataclass
class LineChart:
    """A single-panel line chart with optional log axes."""

    title: str = ""
    x_axis: Axis = field(default_factory=Axis)
    y_axis: Axis = field(default_factory=Axis)
    series: list[Series] = field(default_factory=list)

    def add(self, series: Series) -> None:
        """Append a series to the chart."""
        self.series.append(series)

    def _transform(self, values: np.ndarray, lo: float, hi: float, log: bool,
                   p0: float, p1: float) -> np.ndarray:
        if log:
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = (np.log10(values) - np.log10(lo)) / (np.log10(hi) - np.log10(lo))
        else:
            frac = (values - lo) / (hi - lo)
        return p0 + frac * (p1 - p0)

    def draw(
        self,
        canvas: PostScriptCanvas,
        *,
        x0: float,
        y0: float,
        width: float,
        height: float,
    ) -> None:
        """Render the chart into the given page rectangle."""
        if not self.series:
            raise ReproError(f"chart {self.title!r} has no series")
        all_x = np.concatenate([s.x for s in self.series])
        all_y = np.concatenate([s.y for s in self.series])
        xlo, xhi = self.x_axis.resolved(all_x)
        ylo, yhi = self.y_axis.resolved(all_y)

        canvas.set_gray(0.0)
        canvas.set_line_width(0.8)
        canvas.set_dash(())
        canvas.rect(x0, y0, width, height)
        if self.title:
            canvas.text(x0 + width / 2, y0 + height + 6, self.title, size=11, align="center")
        if self.x_axis.label:
            canvas.text(x0 + width / 2, y0 - 28, self.x_axis.label, size=9, align="center")
        if self.y_axis.label:
            canvas.text(x0 - 8, y0 + height + 6, self.y_axis.label, size=9, align="left")

        # Ticks and grid.
        canvas.set_line_width(0.4)
        for tick in self.x_axis.ticks(xlo, xhi):
            if not (xlo <= tick <= xhi):
                continue
            px = float(self._transform(np.array([tick]), xlo, xhi, self.x_axis.log, x0, x0 + width)[0])
            canvas.line(px, y0, px, y0 + 4)
            canvas.text(px, y0 - 12, _tick_label(tick, self.x_axis.log), size=7, align="center")
        for tick in self.y_axis.ticks(ylo, yhi):
            if not (ylo <= tick <= yhi):
                continue
            py = float(self._transform(np.array([tick]), ylo, yhi, self.y_axis.log, y0, y0 + height)[0])
            canvas.line(x0, py, x0 + 4, py)
            canvas.text(x0 - 4, py - 2, _tick_label(tick, self.y_axis.log), size=7, align="right")

        # Series.
        legend_y = y0 + height - 10
        for s in self.series:
            x, y = _decimate_for_plot(s.x, s.y)
            mask = np.isfinite(x) & np.isfinite(y)
            if self.x_axis.log:
                mask &= x > 0
            if self.y_axis.log:
                mask &= y > 0
            x, y = x[mask], y[mask]
            if x.size < 2:
                continue
            px = self._transform(x, xlo, xhi, self.x_axis.log, x0, x0 + width)
            py = self._transform(y, ylo, yhi, self.y_axis.log, y0, y0 + height)
            px = np.clip(px, x0, x0 + width)
            py = np.clip(py, y0, y0 + height)
            canvas.set_gray(s.gray)
            canvas.set_dash(s.dash)
            canvas.set_line_width(0.6)
            canvas.polyline(np.column_stack((px, py)))
            if s.label:
                canvas.set_dash(())
                canvas.line(x0 + width - 58, legend_y + 3, x0 + width - 44, legend_y + 3)
                canvas.text(x0 + width - 40, legend_y, s.label, size=7)
                legend_y -= 10
        canvas.set_gray(0.0)
        canvas.set_dash(())


def _tick_label(value: float, log: bool) -> str:
    if log:
        exponent = int(round(np.log10(value)))
        if -3 <= exponent <= 3:
            return f"{value:g}"
        return f"1e{exponent}"
    return f"{value:g}"
