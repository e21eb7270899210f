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
import sys
from itertools import chain, repeat
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


def _first_false(ok: np.ndarray) -> int:
    """The index of the first False in ok, or len(ok)."""
    return len(ok) if ok.all() else int(np.argmin(ok))


def _passes(xs: list, kind: type, test) -> np.ndarray:
    """test(x) for every entry x of xs, where an x of type kind passes:
    those are told apart in bulk, the others one by one."""
    ok = np.fromiter(map(type, xs), object, len(xs)) == kind
    for i in (~ok).nonzero()[0]:
        ok[i] = test(xs[i])
    return ok


def _rows(rows: list, width: int, kind: type, test) -> int:
    """The number of leading rows of rows that are lists of width entries
    that pass test (see _passes)."""
    stop = _first_false(_passes(rows, list, lambda x: isinstance(x, list)))
    stop = _first_false(np.fromiter(map(len, rows[:stop]), int, stop)
                        == width)
    flat = list(chain.from_iterable(rows[:stop]))
    return _first_false(_passes(flat, kind, test).reshape(-1, width)
                        .all(axis=1))


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
    # each check runs on the rows before the first that failed the
    # checks before it, so the first failing row, and its first check,
    # is reported
    stop = _rows(raw_verts, 3, float, _is_number)
    verts = np.array(raw_verts[:stop], dtype=float).reshape(-1, 3)
    # written so that a NaN or infinite coordinate fails it too;
    # np.vecdot gives the bits of verts[i] @ verts[i]
    i = _first_false(np.abs(np.vecdot(verts, verts) - 1.0) <= tol.norm)
    if i < stop:
        raise DocumentError(f"vertices[{i}]: not a unit vector within "
                            f"tolerance {tol.norm}")
    if stop < len(raw_verts):
        raise DocumentError(f"vertices[{stop}]: expected [x, y, z]")

    n = len(verts)
    pairing: dict[int, int] = {}
    raw_pairing = doc.get("pairing")
    if raw_pairing is not None:
        if not isinstance(raw_pairing, list):
            raise DocumentError("pairing: expected a list of [i, j] pairs")
        stop = _rows(raw_pairing, 2, int, _is_index)
        for idx, (a, b) in enumerate(raw_pairing[:stop]):
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise DocumentError(f"pairing[{idx}]: invalid vertex indices")
            if a in pairing or b in pairing:
                raise DocumentError(f"pairing[{idx}]: vertex paired twice")
            pairing[a], pairing[b] = b, a
        if stop < len(raw_pairing):
            raise DocumentError(f"pairing[{stop}]: expected [i, j]")
    if kind in (DrawingKind.COCKTAIL_PARTY, DrawingKind.PARTIAL_MATCHING) \
            and not pairing:
        raise DocumentError(f"pairing: required for kind {kind.value!r}")

    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise DocumentError("edges: expected a list")
    # as for the vertices, each check runs on the records before the first
    # one that failed so far: stop is that record, why its message
    stop, why = len(raw_edges), None

    def cut(ok, message, rows=None):
        """Stop at the first record where ok, over rows or over the
        records before stop, is False, if that record comes first."""
        nonlocal stop, why
        bad = (~ok).nonzero()[0] if rows is None else rows[~ok]
        if len(bad) and bad[0] < stop:
            stop, why = int(bad[0]), message

    cut(_passes(raw_edges, dict, lambda x: isinstance(x, dict)),
        "expected an object")
    us, vs, curves, mps = (list(map(dict.get, raw_edges[:stop], repeat(key)))
                           for key in ("u", "v", "curve", "midpoint"))
    cut(_passes(us, int, _is_index) & _passes(vs, int, _is_index),
        "bad endpoints")
    ends = np.array([us[:stop], vs[:stop]], dtype=object)
    cut(((ends >= 0) & (ends < n)).all(axis=0) & (ends[0] != ends[1]),
        "endpoint out of range")
    uv = ends[:, :stop].astype(np.int64).T
    curves = np.fromiter(curves[:stop], object, stop)
    arc = curves == "arc"
    known = arc | (curves == "half_circle")
    cut(known, "curve must be 'arc' or 'half_circle', got "
        f"{next(iter(curves[~known]), None)!r}")
    rows = (~arc[:stop]).nonzero()[0]
    mps = list(map(mps.__getitem__, rows.tolist()))
    good = _rows(mps, 3, float, _is_number)
    M = np.full((len(rows), 3), np.nan)     # NaN past the good rows
    M[:good] = np.array(mps[:good], dtype=float).reshape(-1, 3)
    cut(np.isfinite(M).all(axis=1), "half_circle needs a [x, y, z] midpoint",
        rows)
    cut(np.fromiter(map(pairing.get, uv[rows, 0].tolist(), repeat(-1)),
                    int, len(rows)) == uv[rows, 1],
        "half_circle joins an unpaired couple", rows)
    exc = DocumentError(f"edges[{stop}]: {why}") if why else None
    rows = rows[rows < stop]
    uv, midpoints = uv[:stop], np.full((stop, 3), np.nan)
    # midpoints are orthonormalized in bulk; the first refused one's error
    # is its record's
    try:
        midpoints[rows] = repair_midpoints(verts[uv[rows, 0]],
                                           M[:len(rows)], tol)
    except (ValueError, DegenerateConfigurationError) as err:
        stop = int(rows[err.row])
        exc = (DocumentError(f"edges[{stop}]: {err}")
               if isinstance(err, ValueError) else err)
    prov = doc.get("provenance") or {}
    try:
        if exc is not None:
            raise exc
        if not isinstance(prov, dict):
            raise DocumentError("provenance: expected an object")
        d = Drawing(vertices=verts, kind=kind, uv=uv, midpoints=midpoints,
                    pairing=pairing, provenance=prov, tol=tol)
        validate_drawing(d)
    except (ValueError, DegenerateConfigurationError) as err:
        # equal or antipodal arc endpoints are refused in record order,
        # before the first failing record and any later check; where
        # validate_drawing passes, no arc is
        arcs = uv[:stop][arc[:stop]]
        require_arc_rows(verts[arcs[:, 0]], verts[arcs[:, 1]], tol)
        if isinstance(err, DocumentError) or not isinstance(err, ValueError):
            raise
        raise DocumentError(f"drawing invalid: {err}") from err
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
