"""A minimal PostScript writer.

Implements just enough of the language for the pipeline's plots:
stroked polylines, filled rectangles, text with Helvetica, gray and RGB
color, and dashed lines.  Coordinates are points (1/72 inch) with the
origin at the lower-left of a US-letter page, exactly as PostScript
defines them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import ReproError

PAGE_WIDTH: float = 612.0
PAGE_HEIGHT: float = 792.0

#: Shortest polyline whose points are formatted with numpy; shorter ones
#: (frames, ticks, legend strokes) are cheaper point by point.
_VECTOR_MIN_POINTS = 64
#: A tie guard: coordinates whose hundredths lie this close to a half go to ``%``.
_TIE_MARGIN = 1e-6
#: Largest cent count plus one the digit tables cover: integer parts 0-999.
_CENTS_LIMIT = 100_000

# "%.2f" of a coordinate in [0, 1000) is "I.CC": the integer part's digits
# right-aligned in three bytes, NUL-filled (packing drops the NULs), a dot
# and the two cent digits.
_DIGITS3 = (np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_SIGNIFICANT = np.maximum.accumulate(_DIGITS3 != ord("0"), axis=1)
_SIGNIFICANT[:, 2] = True
#: Integer-part bytes keyed by the integer part.
_INT_BYTES = np.where(_SIGNIFICANT, _DIGITS3, 0).astype(np.uint8)
#: Cent bytes keyed by the cents.
_CENT_BYTES = _DIGITS3[:100, 1:]
_LINETO = np.frombuffer(b" lineto\n", dtype=np.uint8)
#: Bytes of one "III.CC III.CC lineto\n" row.
_ROW_WIDTH = 2 * 6 + 1 + _LINETO.size


def _lineto_lines(xy: np.ndarray) -> str:
    """``"%.2f %.2f lineto\n"`` for every row of the (n, 2) array ``xy``.

    Coordinates in [0, 1000) are built from digit tables: ``rint(v * 100)``
    is the correctly rounded cent count, as ``%.2f`` rounds, unless
    ``v * 100`` lies within the tie guard of a half (its rounding error is
    below 1e-11 there).  Rows holding a near-tie, a negative or
    non-finite coordinate, or one of 1000 and more take ``%`` and are
    spliced in.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = xy * 100.0
        cents = np.rint(scaled)
        digits = (
            np.isfinite(scaled)
            & ~np.signbit(xy)
            & (cents < _CENTS_LIMIT)
            & (np.abs(scaled - np.floor(scaled) - 0.5) >= _TIE_MARGIN)
        )
    whole, cent = np.divmod(np.where(digits, cents, 0).astype(np.int64), 100)
    rows = np.empty((xy.shape[0], _ROW_WIDTH), dtype=np.uint8)
    for column, offset in ((0, 0), (1, 7)):
        rows[:, offset:offset + 3] = _INT_BYTES[whole[:, column]]
        rows[:, offset + 3] = ord(".")
        rows[:, offset + 4:offset + 6] = _CENT_BYTES[cent[:, column]]
    rows[:, 6] = ord(" ")
    rows[:, 13:] = _LINETO
    pieces = []
    start = 0
    for stop in [*np.flatnonzero(~digits.all(axis=1)).tolist(), xy.shape[0]]:
        block = rows[start:stop]
        pieces.append(block[block != 0].tobytes().decode("ascii"))
        if stop < xy.shape[0]:
            x, y = xy[stop].tolist()
            pieces.append(f"{x:.2f} {y:.2f} lineto\n")
        start = stop + 1
    return "".join(pieces)


class PostScriptCanvas:
    """An in-memory PostScript page assembled command by command."""

    def __init__(self, title: str = "repro plot") -> None:
        self.title = title
        self._body: list[str] = []
        self._finished = False

    def _emit(self, command: str) -> None:
        if self._finished:
            raise ReproError("cannot draw on a finished PostScript canvas")
        self._body.append(command)

    def set_gray(self, level: float) -> None:
        """Set the stroke/fill gray level (0 = black, 1 = white)."""
        self._emit(f"{level:.3f} setgray")

    def set_rgb(self, r: float, g: float, b: float) -> None:
        """Set the stroke/fill color."""
        self._emit(f"{r:.3f} {g:.3f} {b:.3f} setrgbcolor")

    def set_line_width(self, width: float) -> None:
        """Set the stroke width in points."""
        self._emit(f"{width:.3f} setlinewidth")

    def set_dash(self, pattern: tuple[float, ...] = ()) -> None:
        """Set the dash pattern; empty pattern means solid."""
        inner = " ".join(f"{v:.2f}" for v in pattern)
        self._emit(f"[{inner}] 0 setdash")

    def polyline(self, points: Sequence[tuple[float, float]] | np.ndarray) -> None:
        """Stroke a connected path through the given page coordinates.

        ``points`` is a sequence of (x, y) pairs or an (n, 2) array.
        """
        if len(points) < 2:
            return
        xy = np.asarray(points, dtype=float)
        if xy.shape[0] < _VECTOR_MIN_POINTS:
            lines = "".join(f"{x:.2f} {y:.2f} lineto\n" for x, y in xy[1:].tolist())
        else:
            lines = _lineto_lines(xy[1:])
        x0, y0 = xy[0].tolist()
        self._emit(f"newpath\n{x0:.2f} {y0:.2f} moveto\n{lines}stroke")

    def line(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """Stroke a single segment."""
        self.polyline([(x0, y0), (x1, y1)])

    def rect(self, x: float, y: float, w: float, h: float, *, fill: bool = False) -> None:
        """Stroke (or fill) an axis-aligned rectangle."""
        op = "fill" if fill else "stroke"
        self._emit(
            f"newpath {x:.2f} {y:.2f} moveto {w:.2f} 0 rlineto "
            f"0 {h:.2f} rlineto {-w:.2f} 0 rlineto closepath {op}"
        )

    def text(
        self, x: float, y: float, string: str, *, size: float = 10.0, align: str = "left"
    ) -> None:
        """Draw text; ``align`` is left, center or right."""
        escaped = string.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")
        self._emit(f"/Helvetica findfont {size:.1f} scalefont setfont")
        if align == "left":
            self._emit(f"{x:.2f} {y:.2f} moveto ({escaped}) show")
        elif align == "center":
            self._emit(
                f"{x:.2f} {y:.2f} moveto ({escaped}) dup stringwidth pop 2 div neg 0 rmoveto show"
            )
        elif align == "right":
            self._emit(
                f"{x:.2f} {y:.2f} moveto ({escaped}) dup stringwidth pop neg 0 rmoveto show"
            )
        else:
            raise ReproError(f"unknown text alignment {align!r}")

    def render(self) -> str:
        """Assemble the complete single-page PostScript document."""
        header = [
            "%!PS-Adobe-3.0",
            f"%%Title: {self.title}",
            "%%Creator: repro.plotting",
            f"%%BoundingBox: 0 0 {int(PAGE_WIDTH)} {int(PAGE_HEIGHT)}",
            "%%Pages: 1",
            "%%EndComments",
            "%%Page: 1 1",
        ]
        footer = ["showpage", "%%EOF"]
        return "\n".join(header + self._body + footer) + "\n"

    def save(self, path: Path | str) -> None:
        """Write the document to disk and finish the canvas."""
        target = path if isinstance(path, Path) else Path(path)
        target.write_text(self.render())
        self._finished = True
