"""JSON document formats: drawings, verification reports, experiments.

Coordinates are serialized through Python's shortest round-trip float repr,
so parse(serialize(drawing)) restores every binary64 bit and therefore every
crossing count exactly.  A drawing document lists one record per row of
``Drawing.uv``: ``{"u", "v", "curve": "arc"}`` for an arc, and a
``"half_circle"`` record with its ``Drawing.midpoints`` row for a
half-circle.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .drawing import (Drawing, DrawingKind, VerificationReport,
                      validate_drawing)
from .geom import (DegenerateConfigurationError, ToleranceConfig,
                   repair_midpoints, require_arc_rows)

DRAWING_FORMAT = "hilldraw/drawing/v1"
REPORT_FORMAT = "hilldraw/report/v1"
EXPERIMENT_FORMAT = "hilldraw/experiment/v1"
_FLOAT_MAX = sys.float_info.max


class DocumentError(ValueError):
    """A document violates the schema; the message names the field."""


def drawing_to_doc(d: Drawing) -> dict:
    pairs = sorted({tuple(sorted((a, b))) for a, b in d.pairing.items()})
    half = d.half
    mids = iter(d.midpoints[half].tolist())
    edges = [{"u": u, "v": v, "curve": "half_circle", "midpoint": next(mids)}
             if h else {"u": u, "v": v, "curve": "arc"}
             for (u, v), h in zip(d.uv.tolist(), half.tolist())]
    return {
        "format": DRAWING_FORMAT,
        "kind": d.kind.value,
        "vertices": np.asarray(d.vertices, dtype=float).tolist(),
        "pairing": [list(p) for p in pairs] or None,
        "edges": edges,
        "provenance": d.provenance,
        "tolerances": d.tol.to_dict(),
    }


def _is_index(x) -> bool:
    """A JSON integer: not a float, a string or a boolean."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A float, or a JSON integer a float holds."""
    return isinstance(x, float) or _is_index(x) and abs(x) <= _FLOAT_MAX


def doc_to_drawing(doc: dict, tol: ToleranceConfig | None = None) -> Drawing:
    """Parse and fully validate a drawing document.

    ``tol`` overrides the tolerances stored in the file.
    """
    if not isinstance(doc, dict):
        raise DocumentError("drawing document must be a JSON object")
    if doc.get("format") != DRAWING_FORMAT:
        raise DocumentError(f"format: expected {DRAWING_FORMAT!r}, got "
                            f"{doc.get('format')!r}")
    try:
        kind = DrawingKind(doc["kind"])
    except KeyError:
        raise DocumentError("kind: missing") from None
    except ValueError:
        raise DocumentError(f"kind: unknown value {doc['kind']!r}") from None

    if tol is None:
        stored = doc.get("tolerances")
        try:
            tol = ToleranceConfig.from_dict({} if stored is None else stored)
        except ValueError as exc:
            raise DocumentError(f"tolerances: {exc}") from None

    raw_verts = doc.get("vertices")
    if not isinstance(raw_verts, list) or not raw_verts:
        raise DocumentError("vertices: expected a non-empty list")
    verts = np.empty((len(raw_verts), 3))
    for i, row in enumerate(raw_verts):
        if (not isinstance(row, list) or len(row) != 3
                or not all(_is_number(c) for c in row)):
            raise DocumentError(f"vertices[{i}]: expected [x, y, z]")
        verts[i] = row
        # written so that a NaN or infinite coordinate fails it too
        if not abs(float(verts[i] @ verts[i]) - 1.0) <= tol.norm:
            raise DocumentError(f"vertices[{i}]: not a unit vector within "
                                f"tolerance {tol.norm}")

    n = len(verts)
    pairing: dict[int, int] = {}
    raw_pairing = doc.get("pairing")
    if raw_pairing is not None:
        if not isinstance(raw_pairing, list):
            raise DocumentError("pairing: expected a list of [i, j] pairs")
        for idx, pair in enumerate(raw_pairing):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(_is_index(x) for x in pair)):
                raise DocumentError(f"pairing[{idx}]: expected [i, j]")
            a, b = pair
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise DocumentError(f"pairing[{idx}]: invalid vertex indices")
            if a in pairing or b in pairing:
                raise DocumentError(f"pairing[{idx}]: vertex paired twice")
            pairing[a] = b
            pairing[b] = a
    if kind in (DrawingKind.COCKTAIL_PARTY, DrawingKind.PARTIAL_MATCHING) \
            and not pairing:
        raise DocumentError(f"pairing: required for kind {kind.value!r}")

    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise DocumentError("edges: expected a list")
    ends, mids = [], []
    failure = None      # (record index, error) of the first failing record
    try:
        for idx, rec in enumerate(raw_edges):
            if not isinstance(rec, dict):
                raise DocumentError(f"edges[{idx}]: expected an object")
            u, v = rec.get("u"), rec.get("v")
            if not (_is_index(u) and _is_index(v)):
                raise DocumentError(f"edges[{idx}]: bad endpoints")
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise DocumentError(f"edges[{idx}]: endpoint out of range")
            curve_kind, mp = rec.get("curve"), rec.get("midpoint")
            if curve_kind == "arc":
                mp = (np.nan,) * 3
            elif curve_kind != "half_circle":
                raise DocumentError(f"edges[{idx}]: curve must be 'arc' or "
                                    f"'half_circle', got {curve_kind!r}")
            elif (not isinstance(mp, list) or len(mp) != 3 or not all(
                    _is_number(c) and math.isfinite(c) for c in mp)):
                raise DocumentError(f"edges[{idx}]: half_circle needs a "
                                    "[x, y, z] midpoint")
            elif pairing.get(u) != v:
                raise DocumentError(f"edges[{idx}]: half_circle joins an "
                                    "unpaired couple")
            ends.append((u, v))
            mids.append(mp)
    except DocumentError as exc:
        failure = idx, exc
    uv = np.array(ends, dtype=np.int64).reshape(-1, 2)
    midpoints = np.array(mids, dtype=float).reshape(-1, 3)
    half = ~np.isnan(midpoints).all(axis=1)
    # midpoints are orthonormalized in bulk; the first refused one's error
    # is its record's
    rows = np.flatnonzero(half)
    try:
        midpoints[rows] = repair_midpoints(verts[uv[rows, 0]],
                                           midpoints[rows], tol)
    except (ValueError, DegenerateConfigurationError) as exc:
        idx = int(rows[exc.row])
        failure = idx, (DocumentError(f"edges[{idx}]: {exc}")
                        if isinstance(exc, ValueError) else exc)
    # equal or antipodal arc endpoints are refused in record order, before
    # the first failing record and before validate_drawing's checks
    idx, exc = failure or (len(uv), None)
    arcs = uv[:idx][~half[:idx]]
    require_arc_rows(verts[arcs[:, 0]], verts[arcs[:, 1]], tol)
    if exc is not None:
        raise exc

    prov = doc.get("provenance") or {}
    if not isinstance(prov, dict):
        raise DocumentError("provenance: expected an object")
    d = Drawing(vertices=verts, kind=kind, uv=uv, midpoints=midpoints,
                pairing=pairing, provenance=prov, tol=tol)
    try:
        validate_drawing(d)
    except ValueError as exc:
        raise DocumentError(f"drawing invalid: {exc}") from exc
    return d


def write_json(doc: dict, path=None) -> None:
    """Write doc as indented JSON and a newline to path, or to stdout."""
    text = json.dumps(doc, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def dump_drawing(d: Drawing, path) -> None:
    write_json(drawing_to_doc(d), path)


def load_drawing(path, tol: ToleranceConfig | None = None) -> Drawing:
    """Parse and validate the drawing document at path; '-' is stdin."""
    stdin = path == "-"
    text = sys.stdin.read() if stdin else Path(path).read_text("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{'stdin' if stdin else path}: not valid JSON "
                            f"(line {exc.lineno}: {exc.msg})") from exc
    return doc_to_drawing(doc, tol)


def report_to_doc(report: VerificationReport,
                  include_pairs: bool = False) -> dict:
    doc = {"format": REPORT_FORMAT, **report.to_dict()}
    if include_pairs:
        doc["crossing_pairs"] = report.crossings.pairs.tolist()
    return doc


def dump_report(report: VerificationReport, path,
                include_pairs: bool = False) -> None:
    write_json(report_to_doc(report, include_pairs), path)


def experiment_to_doc(result) -> dict:
    return {"format": EXPERIMENT_FORMAT, **result.to_dict()}
