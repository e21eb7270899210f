"""Two-hemisphere SVG rendering of spherical drawings.

Orthographic projection: the front disk shows the hemisphere z >= 0 viewed
from +z, the back disk shows z < 0 viewed from -z (x mirrored so the back
reads like a globe turned around).  All edges are sampled at once from
the drawing's arrays, bit for bit as the curves' ``point_at`` would, and
drawn as polylines cut where the samples change hemisphere.
"""

from __future__ import annotations

import math

import numpy as np

from .drawing import Drawing, count_crossings
from .geom import (ToleranceConfig, cross, repair_midpoints,
                   require_arc_rows, require_unit_rows)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
            "#aec7e8", "#ff9896")

_R = 200.0
_FRONT = (230.0, 250.0)
_BACK = (690.0, 250.0)
_W, _H = 920, 520


def _project(P: np.ndarray):
    """Disk coordinates x, y of the points P (m, 3), and the front mask."""
    x, y, z = P.T
    front = z >= 0.0
    return (np.where(front, _FRONT[0] + _R * x, _BACK[0] - _R * x),
            np.where(front, _FRONT[1], _BACK[1]) - _R * y, front)


def _samples(d: Drawing, segments: int) -> np.ndarray:
    """Points (E, segments + 1, 3) of the edges at t = k / segments:
    cos(t L) a + sin(t L) w on an arc from a to b, L = atan2(|a x b|, a . b)
    and w the unit in-plane companion of b; cos(pi t) p + sin(pi t) m on a
    half-circle.  Checks and witness repair are the curves' own."""
    arc, tol = ~d.half, d.tol
    a, b = d.vertices[d.uv[:, 0]], d.vertices[d.uv[:, 1]]
    require_arc_rows(a[arc], b[arc], tol)
    require_unit_rows(a[~arc], tol)
    toward = d.midpoints.copy()
    toward[~arc] = repair_midpoints(a[~arc], toward[~arc], tol)
    # vecdot runs a @ b's dot loop, and math.atan2 is the scalar one, so
    # every sample has point_at's bits
    A, B = a[arc], b[arc]
    ab, C = np.vecdot(A, B), cross(A, B)
    W = B - ab[:, None] * A
    toward[arc] = W / np.sqrt(np.vecdot(W, W))[:, None]
    span = np.full(len(arc), math.pi)
    span[arc] = list(map(math.atan2, np.sqrt(np.vecdot(C, C)), ab))
    angle = span[:, None] * np.linspace(0.0, 1.0, segments + 1)
    return (np.cos(angle)[..., None] * a[:, None]
            + np.sin(angle)[..., None] * toward[:, None])


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
    if crossings is None:
        crossings = count_crossings(d, tol or d.tol).total

    colors, groups = {}, 0
    for i in range(d.n):
        if i not in colors:
            colors[i] = colors[d.pairing.get(i, i)] = \
                _PALETTE[groups % len(_PALETTE)]
            groups += 1

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

    per_edge = segments_per_edge + 1
    x, y, front = _project(np.concatenate([
        _samples(d, segments_per_edge).reshape(-1, 3), d.vertices]))
    size = len(x) - d.n
    x, y = x.tolist(), y.tolist()
    points = [f"{a:.2f},{b:.2f}" for a, b in zip(x[:size], y[:size])]
    # an edge's runs start at its first sample and wherever the side
    # changes; runs of a single sample are not drawn
    side = front[:size].reshape(-1, per_edge)
    starts = np.flatnonzero(np.diff(side, axis=1, prepend=~side[:, :1]))
    stops = np.append(starts[1:], size)
    keep = stops - starts >= 2
    styles = [(colors[u], "1.6") if h else ("#444", "0.8")
              for u, h in zip(d.uv[:, 0].tolist(), d.half.tolist())]
    for s, t in zip(starts[keep].tolist(), stops[keep].tolist()):
        stroke, width = styles[s // per_edge]
        parts.append(f"<polyline points='{' '.join(points[s:t])}' "
                     f"fill='none' stroke='{stroke}' "
                     f"stroke-width='{width}'/>")

    for i, (a, b) in enumerate(zip(x[size:], y[size:])):
        parts.append(f"<circle cx='{a:.2f}' cy='{b:.2f}' r='3.5' "
                     f"fill='{colors[i]}' stroke='black' "
                     "stroke-width='0.5'/>")
        parts.append(f"<text x='{a + 5:.2f}' y='{b - 5:.2f}' "
                     f"font-size='10' fill='#333'>{i}</text>")

    parts.append(f"<text x='20' y='{_H - 16}' font-size='16' fill='black'>"
                 f"crossings: {crossings}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
