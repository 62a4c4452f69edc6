"""Per-point reference implementations of the vectorised plotting paths.

The loops the charting layer used before decimation and PostScript
polylines were built with numpy; the equivalence properties in
``test_vectorised_equivalence.py`` hold the fast paths to them.
"""

from __future__ import annotations

import numpy as np


def decimate_loop(x: np.ndarray, y: np.ndarray, max_points: int = 2000) -> tuple[np.ndarray, np.ndarray]:
    """Bucket by bucket: each bucket's argmin and argmax, in index order."""
    n = x.shape[0]
    if n <= max_points:
        return x, y
    buckets = max_points // 2
    edges = np.linspace(0, n, buckets + 1, dtype=int)
    xs: list[float] = []
    ys: list[float] = []
    for b in range(buckets):
        s, e = edges[b], edges[b + 1]
        if s >= e:
            continue
        seg = y[s:e]
        i_min = s + int(np.argmin(seg))
        i_max = s + int(np.argmax(seg))
        for i in sorted((i_min, i_max)):
            xs.append(float(x[i]))
            ys.append(float(y[i]))
    return np.asarray(xs), np.asarray(ys)


def polyline_fstring(points) -> str:
    """The polyline command with every point formatted by an f-string."""
    parts = ["newpath", f"{points[0][0]:.2f} {points[0][1]:.2f} moveto"]
    parts.extend(f"{x:.2f} {y:.2f} lineto" for x, y in points[1:])
    parts.append("stroke")
    return "\n".join(parts)
