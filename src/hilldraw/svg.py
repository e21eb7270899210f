"""Two-hemisphere SVG rendering of spherical drawings.

Orthographic projection: the front disk shows the hemisphere z >= 0 viewed
from +z, the back disk shows z < 0 viewed from -z (x mirrored so the back
reads like a globe turned around).  Curves are drawn as sampled polylines
split at the hemisphere boundary.
"""

from __future__ import annotations

import numpy as np

from .drawing import Drawing, count_crossings
from .geom import GeodesicArc, HalfCircle, ToleranceConfig

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
            "#aec7e8", "#ff9896")

_R = 200.0
_FRONT = (230.0, 250.0)
_BACK = (690.0, 250.0)
_W, _H = 920, 520


def _project(pt) -> tuple[float, float]:
    x, y, z = float(pt[0]), float(pt[1]), float(pt[2])
    if z >= 0.0:
        cx, cy = _FRONT
        return cx + _R * x, cy - _R * y
    cx, cy = _BACK
    return cx - _R * x, cy - _R * y


def _sample_curve(curve, segments: int) -> np.ndarray:
    ts = np.linspace(0.0, 1.0, segments + 1)
    return np.stack([curve.point_at(float(t)) for t in ts])


def _polyline_runs(points: np.ndarray) -> list[list[tuple[float, float]]]:
    """Split a sampled curve into per-hemisphere runs of projected points."""
    runs: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    side = None
    for pt in points:
        s = float(pt[2]) >= 0.0
        if side is None or s == side:
            current.append(_project(pt))
        else:
            if len(current) >= 2:
                runs.append(current)
            current = [_project(pt)]
        side = s
    if len(current) >= 2:
        runs.append(current)
    return runs


def export_svg(d: Drawing, tol: ToleranceConfig | None = None,
               projection: str = "ortho", crossings: int | None = None,
               segments_per_edge: int = 64) -> str:
    """Render a drawing to SVG text.

    The crossing total is annotated; pass ``crossings`` to skip recounting.
    Vertices of an antipodal pair share a color.
    """
    if projection != "ortho":
        raise ValueError(f"unsupported projection {projection!r}")
    if segments_per_edge < 64:
        raise ValueError("need at least 64 segments per edge")
    tol = tol or d.tol
    if crossings is None:
        crossings = count_crossings(d, tol).total if len(d.uv) else 0

    colors = {}
    next_color = 0
    for i in range(d.n):
        if i in colors:
            continue
        j = d.pairing.get(i)
        color = _PALETTE[next_color % len(_PALETTE)]
        next_color += 1
        colors[i] = color
        if j is not None:
            colors[j] = color

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_W}' "
        f"height='{_H}' viewBox='0 0 {_W} {_H}'>",
        f"<rect width='{_W}' height='{_H}' fill='white'/>",
    ]
    for (cx, cy), label in ((_FRONT, "front"), (_BACK, "back")):
        parts.append(f"<circle cx='{cx:g}' cy='{cy:g}' r='{_R:g}' "
                     "fill='none' stroke='#999' stroke-width='1'/>")
        parts.append(f"<text x='{cx:g}' y='{cy + _R + 24:g}' "
                     "text-anchor='middle' font-size='14' "
                     f"fill='#555'>{label}</text>")

    for (u, v), half, m in zip(d.uv.tolist(), d.half, d.midpoints):
        if half:
            curve = HalfCircle(d.vertices[u], m, d.tol)
            stroke, width = colors[u], "1.6"
        else:
            curve = GeodesicArc(d.vertices[u], d.vertices[v], d.tol)
            stroke, width = "#444", "0.8"
        samples = _sample_curve(curve, segments_per_edge)
        for run in _polyline_runs(samples):
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in run)
            parts.append(f"<polyline points='{coords}' fill='none' "
                         f"stroke='{stroke}' stroke-width='{width}'/>")

    for i, v in enumerate(d.vertices):
        x, y = _project(v)
        parts.append(f"<circle cx='{x:.2f}' cy='{y:.2f}' r='3.5' "
                     f"fill='{colors[i]}' stroke='black' "
                     "stroke-width='0.5'/>")
        parts.append(f"<text x='{x + 5:.2f}' y='{y - 5:.2f}' "
                     f"font-size='10' fill='#333'>{i}</text>")

    parts.append(f"<text x='20' y='{_H - 16}' font-size='16' fill='black'>"
                 f"crossings: {crossings}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
