"""Independent oracles the tests derive expected values from.

The scalar curves come first: GeodesicArc and HalfCircle, one object per
curve, with orient, angular_distance, is_unit, curve_frame and the
one-pair predicates arcs_cross, half_circle_crosses_arc and
half_circles_cross (Curve is either class).  The package works on arrays
only, and these are the references its row kernels must match: arc_frames
and require_arc_rows give GeodesicArc's frames and errors, repair_midpoints
and the seed arrangements HalfCircle's witnesses and errors, and the SVG
samples the curves' point_at, bit for bit.  The one-pair predicates decide
one pair through geom.frame_signs and refuse its two dead zones, which
frames_cross_reference checks independently.

Beyond those predicates nothing here shares code paths with the package:
crossings are decided by dense sampling or by sign bisection along one
curve plus arc-length membership on the other, and the reference counter
walks edge pairs with its own bookkeeping and its own scalar curves.
circle_pair_count_reference is the scalar loop that the batched
circle-pair counter replaced, one circle pair at a time, and
frames_cross_reference the scalar test that the batched frame_signs
replaced, one frame pair at a time.  uniform_draw_reference is the row-norm
formula the component-wise uniform draw must match bit for bit.
block_dets_reference and coplanar_reference compute triple determinants
as the kernels did before they took their cross products once per point
set: one np.cross per block of rows; the kernels must give the same
determinants bit for bit.  points_usable_reference is sample_points'
acceptance test as it was before the orientation stage decided it,
through the package's has_coplanar_triple.  half_circle_distance_reference
is the scalar distance from a point to a half-circle that the blowup's
containment check measured one point at a time before it took each
parent's children in one pass.  apex_checks_reference is add_apex's pair of
general-position checks as they ran before the apex drawing's orientation
stage could vouch for them, one vertex pair and one edge at a time.
doc_to_drawing_reference is the document parser as it ran before it
checked records in bulk, one record at a time.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from hilldraw.docio import (DRAWING_FORMAT, DocumentError, _is_index,
                            _is_number)
from hilldraw.drawing import Drawing, DrawingKind, validate_drawing
from hilldraw.geom import (DEFAULT_TOL, DegenerateConfigurationError,
                           ToleranceConfig, Vec3, cross, frame_signs,
                           has_coplanar_triple, repair_midpoints,
                           require_arc_rows, require_unit, row_blocks, unit)


# ---------------------------------------------------------------------------
# the scalar curves: one arc or half-circle object per curve, and the
# one-pair predicates over them
# ---------------------------------------------------------------------------

def is_unit(v, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    v = np.asarray(v, dtype=float)
    return abs(float(v @ v) - 1.0) <= tol.norm


def angular_distance(a, b) -> float:
    """Angle in radians between two unit vectors (stable near 0 and pi)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.atan2(float(np.linalg.norm(cross(a, b))), float(a @ b))


def orient(p, q, r, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Sign of det[p q r]: +1, -1, or 0 when |det| falls in the dead zone.

    Zero means the three directions are coplanar with the center within
    tolerance, i.e. they lie on a common great circle.
    """
    d = float(np.linalg.det(np.stack([np.asarray(p, float),
                                      np.asarray(q, float),
                                      np.asarray(r, float)])))
    if abs(d) <= tol.sign:
        return 0
    return 1 if d > 0.0 else -1


class GeodesicArc:
    """The shorter great-circle segment between two non-antipodal points.

    Interior membership uses the wedge form: x is strictly inside the arc
    (a, b) iff x = alpha*a + beta*b with alpha, beta > 0, tested through the
    two triple-product signs x . (b x n) and x . (n x a) with n = a x b.
    """

    __slots__ = ("a", "b", "normal", "wedge_u", "wedge_v")

    def __init__(self, a, b, tol: ToleranceConfig = DEFAULT_TOL):
        a = require_unit(a, tol)
        b = require_unit(b, tol)
        n = cross(a, b)
        nn = float(np.linalg.norm(n))
        if nn <= tol.general_position:
            raise DegenerateConfigurationError(
                "arc endpoints are equal or antipodal within tolerance")
        self.a = a
        self.b = b
        self.normal = n / nn
        self.wedge_u = cross(b, self.normal)
        self.wedge_v = cross(self.normal, a)

    def length(self) -> float:
        return angular_distance(self.a, self.b)

    def point_at(self, t: float) -> Vec3:
        """Point at fraction t in [0, 1] from a to b along the arc."""
        ang = self.length() * t
        # slerp via the in-plane orthonormal companion of a
        w = unit(self.b - float(self.a @ self.b) * self.a)
        return math.cos(ang) * self.a + math.sin(ang) * w

    def antipodal_image(self) -> "GeodesicArc":
        return GeodesicArc(-self.a, -self.b)

    def __repr__(self):
        return f"GeodesicArc(a={self.a.tolist()}, b={self.b.tolist()})"


class HalfCircle:
    """Half of a great circle joining the antipodal pair p, -p.

    The curve is {cos(t) p + sin(t) m : t in [0, pi]} where m, the midpoint
    witness, is orthonormalized against p on construction.  A point x of the
    great circle belongs to the half iff x . m >= 0.
    """

    __slots__ = ("p", "m", "normal")

    def __init__(self, p, m, tol: ToleranceConfig = DEFAULT_TOL):
        p = require_unit(p, tol)
        m = np.asarray(m, dtype=float)
        if not is_unit(m, tol):
            m = unit(m)
        d = float(p @ m)
        if abs(d) > tol.perp:
            m = m - d * p
            nm = float(np.linalg.norm(m))
            if nm <= tol.general_position:
                raise DegenerateConfigurationError(
                    "midpoint witness is parallel to the endpoint")
            m = m / nm
        self.p = p
        self.m = m
        self.normal = cross(p, m)

    def point_at(self, t: float) -> Vec3:
        """Point at parameter t in [0, 1] from p to -p through m."""
        ang = math.pi * t
        return math.cos(ang) * self.p + math.sin(ang) * self.m

    def __repr__(self):
        return f"HalfCircle(p={self.p.tolist()}, m={self.m.tolist()})"


Curve = GeodesicArc | HalfCircle


def curve_frame(c: Curve):
    """(unit normal, wedge_u, wedge_v) of a curve.

    The interior test `u . x > 0 and v . x > 0` describes the open arc for
    geodesic arcs and, with u = v = m, the half `m . x > 0` for half-circles,
    which lets one predicate serve every curve pair.
    """
    if isinstance(c, GeodesicArc):
        return c.normal, c.wedge_u, c.wedge_v
    return c.normal, c.m, c.m


def _curves_cross(c1: Curve, c2: Curve, tol: ToleranceConfig) -> bool:
    """frame_signs on one curve pair, refusing its two dead zones."""
    crossing, nx, mags = frame_signs(
        *(tuple(w[:, None] for w in curve_frame(c)) for c in (c1, c2)))
    if nx[0] <= tol.sign:
        raise DegenerateConfigurationError(
            "curves lie on the same great circle within tolerance")
    if mags[0] <= tol.sign * nx[0]:
        raise DegenerateConfigurationError(
            "intersection direction inside the sign dead zone")
    return bool(crossing[0])


def arcs_cross(e1: GeodesicArc, e2: GeodesicArc,
               tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Do two open geodesic arcs share an interior point?

    The great circles meet in the directions +-x = +-(n1 x n2); the arcs
    cross iff x or -x is strictly interior to both wedges.  Arcs on the same
    great circle (or a decision inside the dead zone) raise
    DegenerateConfigurationError; the caller must perturb or reject.
    """
    return _curves_cross(e1, e2, tol)


def half_circle_crosses_arc(h: HalfCircle, e: GeodesicArc,
                            tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Does the half-circle meet the open arc?  Same +-x contract, with
    half membership x . m >= 0 on the half-circle's great circle."""
    return _curves_cross(h, e, tol)


def half_circles_cross(h1: HalfCircle, h2: HalfCircle,
                       tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Do two half-circles with disjoint endpoint pairs cross?"""
    return _curves_cross(h1, h2, tol)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def half_circle_distance_reference(h: HalfCircle, x) -> float:
    """Angular distance from x to the closed half-circle curve h."""
    x = np.asarray(x, dtype=float)
    s = float(x @ h.normal)
    s = max(-1.0, min(1.0, s))
    proj = x - s * h.normal
    npj = float(np.linalg.norm(proj))
    if npj < 1e-300:
        return math.pi / 2.0
    proj /= npj
    if float(proj @ h.m) >= 0.0:
        return abs(math.asin(s))
    return min(angular_distance(x, h.p), angular_distance(x, -h.p))


def apex_checks_reference(config, asg, q, tol: ToleranceConfig) -> None:
    """Raise add_apex's error if q is coplanar with two vertices of the
    doubled set that are not an antipodal couple, or lies on a curve of
    the full drawing: its arcs in add_apex's edge order, then its
    half-circles."""
    verts, k = config.doubled, config.k
    n = len(verts)
    for i, j in combinations(range(n), 2):
        if j != i + k and abs(float(np.cross(verts[i], q) @ verts[j])) \
                <= tol.general_position:
            raise DegenerateConfigurationError(
                f"apex is coplanar with vertices {i},{j}; resample the apex")
    arcs = [(a, b) for a, b in combinations(range(n), 2) if b != a + k]
    curves = [GeodesicArc(verts[a], verts[b], tol) for a, b in arcs]
    curves += [HalfCircle(p, m, tol) for p, m in zip(config.base,
                                                     asg.midpoints)]
    edges = arcs + [(i, i + k) for i in range(k)]
    for (a, b), c in zip(edges, curves):
        u, v = (c.wedge_u, c.wedge_v) if isinstance(c, GeodesicArc) \
            else (c.m, c.m)
        if (abs(float(c.normal @ q)) <= tol.general_position
                and float(u @ q) > 0.0 and float(v @ q) > 0.0):
            raise DegenerateConfigurationError(
                f"apex lies on edge ({a},{b}); resample the apex")


def sample_curve(curve, segments: int) -> np.ndarray:
    ts = np.linspace(0.0, 1.0, segments + 1)
    return np.stack([curve.point_at(float(t)) for t in ts])


def min_angular_distance(c1, c2, segments: int = 2000) -> float:
    """Minimum angle between sample points of the two curves, blockwise."""
    A = sample_curve(c1, segments)
    B = sample_curve(c2, segments)
    best = -1.0
    for i in range(0, len(A), 2048):
        dots = A[i:i + 2048] @ B.T
        best = max(best, float(dots.max()))
    return math.acos(max(-1.0, min(1.0, best)))


def crossing_oracle_sampled(c1, c2, segments: int = 10_000) -> bool:
    """Dense-sampling proximity oracle: subdivide both curves and call them
    crossing iff some pair of samples comes within the sampling resolution.
    Suitable when the true separation is far larger than the resolution."""
    resolution = math.pi / segments
    return min_angular_distance(c1, c2, segments) < 1.5 * resolution


def _arc_excess(arc: GeodesicArc, x) -> float:
    """d(a,x) + d(x,b) - d(a,b): zero iff x lies on the closed arc."""
    def ang(u, v):
        return math.atan2(float(np.linalg.norm(np.cross(u, v))),
                          float(u @ v))
    return ang(arc.a, x) + ang(x, arc.b) - ang(arc.a, arc.b)


def _on_curve_margin(curve, x) -> float:
    """Signed containment margin of a great-circle point x on the curve:
    positive inside, negative outside."""
    if isinstance(curve, GeodesicArc):
        excess = _arc_excess(curve, x)
        if excess < 1e-12:
            # inside; margin is the distance to the nearer endpoint
            da = math.atan2(float(np.linalg.norm(np.cross(curve.a, x))),
                            float(curve.a @ x))
            db = math.atan2(float(np.linalg.norm(np.cross(curve.b, x))),
                            float(curve.b @ x))
            return min(da, db)
        return -excess / 2.0
    # half-circle: on the half iff within a quarter turn of the midpoint
    dm = math.atan2(float(np.linalg.norm(np.cross(curve.m, x))),
                    float(curve.m @ x))
    return math.pi / 2.0 - dm


def crossing_oracle_bisect(c1, c2, iterations: int = 60):
    """(verdict, margin): does c2 meet the curve c1?

    Locates the point where c2 pierces c1's great-circle plane by sign
    bisection along c2's parameterization, then decides membership on c1 by
    arc-length comparison.  ``margin`` estimates the distance to the nearest
    decision flip; verdicts with tiny margins should be skipped by callers.
    """
    n1 = c1.normal

    def side(t):
        return float(c2.point_at(t) @ n1)

    s0, s1 = side(0.0), side(1.0)
    if s0 == 0.0 or s1 == 0.0:
        return False, 0.0
    if (s0 > 0.0) == (s1 > 0.0):
        # c2 stays on one side of the plane
        return False, min(abs(s0), abs(s1))
    lo, hi = 0.0, 1.0
    slo = s0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        sm = side(mid)
        if sm == 0.0:
            lo = hi = mid
            break
        if (sm > 0.0) == (slo > 0.0):
            lo = mid
            slo = sm
        else:
            hi = mid
    x = c2.point_at(0.5 * (lo + hi))
    x = x / np.linalg.norm(x)
    margin = _on_curve_margin(c1, x)
    return margin > 0.0, abs(margin)


def bulk_bisection_oracle(A, B, C, D, iterations: int = 60):
    """Vectorized independent crossing oracle for arc rows (A,B) vs (C,D).

    For each row: bracket the point where arc (C,D) pierces the plane of
    (A,B) by endpoint signs, refine it by bisection along the arc, and test
    membership on (A,B) by arc-length sums.  Returns (verdict, margin);
    rows whose margin is tiny are undecidable at this resolution and should
    be excluded by the caller.
    """
    def runit(M):
        return M / np.linalg.norm(M, axis=1, keepdims=True)

    A, B, C, D = map(runit, (A, B, C, D))
    N1 = np.cross(A, B)
    N1 = runit(N1)
    sc = np.einsum("ij,ij->i", C, N1)
    sd = np.einsum("ij,ij->i", D, N1)
    bracket = (sc > 0) != (sd > 0)

    gamma = np.arctan2(np.linalg.norm(np.cross(C, D), axis=1),
                       np.einsum("ij,ij->i", C, D))
    sing = np.sin(gamma)
    sing = np.where(sing > 0, sing, 1.0)

    def arc_point(t):
        w1 = np.sin((1.0 - t) * gamma) / sing
        w2 = np.sin(t * gamma) / sing
        return runit(w1[:, None] * C + w2[:, None] * D)

    lo = np.zeros(len(A))
    hi = np.ones(len(A))
    slo = sc.copy()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        sm = np.einsum("ij,ij->i", arc_point(mid), N1)
        same = (sm > 0) == (slo > 0)
        lo = np.where(same, mid, lo)
        slo = np.where(same, sm, slo)
        hi = np.where(same, hi, mid)
    X = arc_point(0.5 * (lo + hi))

    def ang(P, Q):
        return np.arctan2(np.linalg.norm(np.cross(P, Q), axis=1),
                          np.einsum("ij,ij->i", P, Q))

    da = ang(A, X)
    db = ang(X, B)
    excess = da + db - ang(A, B)
    inside = excess < 1e-12
    membership_margin = np.where(inside, np.minimum(da, db), excess / 2.0)
    verdict = bracket & inside
    margin = np.where(bracket, membership_margin,
                      np.minimum(np.abs(sc), np.abs(sd)))
    return verdict, margin


def frames_cross_reference(f1, f2, tol: ToleranceConfig) -> bool:
    """Scalar crossing test of one frame pair (normal, wedge_u, wedge_v):
    frame_signs's reference, with its two refusals."""
    n1, u1, v1 = f1
    n2, u2, v2 = f2
    x = np.cross(n1, n2)
    nx = float(np.linalg.norm(x))
    if nx <= tol.sign:
        raise DegenerateConfigurationError(
            "curves lie on the same great circle within tolerance")
    x /= nx
    dots = (float(u1 @ x), float(v1 @ x), float(u2 @ x), float(v2 @ x))
    if min(abs(d) for d in dots) <= tol.sign:
        raise DegenerateConfigurationError(
            "intersection direction inside the sign dead zone")
    return all(d > 0.0 for d in dots) or all(d < 0.0 for d in dots)


def _curves(drawing) -> list:
    """One scalar curve per edge row of the drawing's arrays."""
    verts, tol = drawing.vertices, drawing.tol
    return [HalfCircle(verts[u], m, tol) if not np.isnan(m).all()
            else GeodesicArc(verts[u], verts[v], tol)
            for (u, v), m in zip(drawing.uv.tolist(), drawing.midpoints)]


def brute_count(drawing) -> tuple[int, set]:
    """Reference crossing counter: plain pair loop over edges with its own
    skip bookkeeping, its own curves and the scalar predicates."""
    ends = [set(e) for e in drawing.uv.tolist()]
    curves = _curves(drawing)
    pairing = drawing.pairing
    pairs = set()
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            ends1, ends2 = ends[i], ends[j]
            if ends1 & ends2:
                continue
            if any(pairing.get(w) in ends2 for w in ends1):
                continue
            c1, c2 = curves[i], curves[j]
            h1 = isinstance(c1, HalfCircle)
            h2 = isinstance(c2, HalfCircle)
            if h1 and h2:
                hit = half_circles_cross(c1, c2, drawing.tol)
            elif h1:
                hit = half_circle_crosses_arc(c1, c2, drawing.tol)
            elif h2:
                hit = half_circle_crosses_arc(c2, c1, drawing.tol)
            else:
                hit = arcs_cross(c1, c2, drawing.tol)
            if hit:
                pairs.add((i, j))
    return len(pairs), pairs


def circle_pair_count_reference(d, tol=None) -> int:
    """Scalar reference of drawing.count_crossings_by_circle_pairs: the
    same method, checks and messages, one circle pair at a time in
    lexicographic order.

    Every edge lies on the great circle spanned by one couple of antipodal
    pairs, and all crossings happen between two such circles.  For each pair
    of circles this locates the two actual intersection directions and
    attributes each to the unique containing edge on both circles; circles
    sharing a base pair meet exactly on that pair's axis and contribute
    nothing.
    """
    tol = tol or d.tol
    if d.kind is not DrawingKind.COCKTAIL_PARTY:
        raise ValueError("the circle-pair counter applies to matching-free "
                         "antipodal drawings only")
    n = d.n
    k = n // 2
    pair_list = sorted({tuple(sorted((a, b))) for a, b in d.pairing.items()})
    rep = [p[0] for p in pair_list]            # one base vertex per pair
    part = [p[1] for p in pair_list]
    verts = d.vertices

    cycles = list(combinations(range(k), 2))
    C = len(cycles)
    normals = np.empty((C, 3))
    arc_w = np.empty((C, 4, 2, 3))             # per cycle: 4 arcs x 2 wedges
    for c, (i, j) in enumerate(cycles):
        a, abar = rep[i], part[i]
        b, bbar = rep[j], part[j]
        normals[c] = unit(np.cross(verts[a], verts[b]))
        ring = [(a, b), (b, abar), (abar, bbar), (bbar, a)]
        for s, (u, v) in enumerate(ring):
            nrm = unit(np.cross(verts[u], verts[v]))
            arc_w[c, s, 0] = np.cross(verts[v], nrm)
            arc_w[c, s, 1] = np.cross(nrm, verts[u])

    def contains_count(c, cand):
        dots = arc_w[c] @ cand                  # (4, 2)
        if np.any(np.abs(dots) <= tol.sign):
            raise DegenerateConfigurationError(
                f"circle-pair attribution hit the dead zone on cycle {c}")
        return int(np.sum((dots > 0.0).all(axis=1)))

    total = 0
    for c1 in range(C):
        i, j = cycles[c1]
        for c2 in range(c1 + 1, C):
            r, s = cycles[c2]
            x = np.cross(normals[c1], normals[c2])
            nx = float(np.linalg.norm(x))
            if nx <= tol.sign:
                raise DegenerateConfigurationError(
                    f"cycles {cycles[c1]} and {cycles[c2]} span the same "
                    "great circle")
            x /= nx
            common = {i, j} & {r, s}
            if common:
                shared = verts[rep[common.pop()]]
                if abs(abs(float(x @ shared)) - 1.0) > tol.general_position:
                    raise DegenerateConfigurationError(
                        "circles through a shared pair fail to meet on its "
                        "axis")
                continue
            for cand in (x, -x):
                in1 = contains_count(c1, cand)
                in2 = contains_count(c2, cand)
                if in1 > 1 or in2 > 1:
                    raise DegenerateConfigurationError(
                        "intersection attributed to more than one arc")
                if in1 and in2:
                    total += 1
    return total


def uniform_draw_reference(rng, size: int) -> np.ndarray:
    """Normalized Gaussian triples through numpy's row norm."""
    pts = rng.normal(size=(size, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def hill_closed_form(n: int) -> int:
    """Even/odd closed forms of the Hill number, exact division checked."""
    if n % 2 == 0:
        q, r = divmod(n * (n - 2) ** 2 * (n - 4), 64)
    else:
        q, r = divmod((n - 1) ** 2 * (n - 3) ** 2, 64)
    assert r == 0
    return q


def block_dets_reference(pts: np.ndarray) -> np.ndarray:
    """(P, P, P) array of det(a, b, c), one np.cross per block of rows a
    of row_blocks(P, P * P)."""
    P = len(pts)
    return np.concatenate([
        (np.cross(pts[a0:a1, None], pts).reshape(-1, 3) @ pts.T).reshape(
            a1 - a0, P, P) for a0, a1 in row_blocks(P, P * P)])


def coplanar_reference(points: np.ndarray) -> float:
    """Least |det| over the triples i < j < l, one np.cross per block of
    pairs of row_blocks(C(n, 2), n)."""
    n = len(points)
    ii, jj = np.triu_indices(n, 1)
    least = np.inf
    for start, stop in row_blocks(len(ii), n):
        i, j = ii[start:stop], jj[start:stop]
        dets = np.abs(np.cross(points[i], points[j]) @ points.T)
        least = min(least, dets[np.arange(n) > j[:, None]].min())
    return float(least)


def points_usable_reference(pts: np.ndarray, tol: ToleranceConfig) -> bool:
    """General position plus no (near-)equal or (near-)antipodal pair:
    every |p_i x p_j|^2 > general_position^2 and has_coplanar_triple
    false at general_position."""
    ii, jj = np.triu_indices(len(pts), 1)
    for start, stop in row_blocks(len(ii), 3):
        cr = np.cross(pts[ii[start:stop]], pts[jj[start:stop]])
        if np.any(np.einsum("ij,ij->i", cr, cr)
                  <= tol.general_position ** 2):
            return False
    return not has_coplanar_triple(pts, tol.general_position)


def doc_to_drawing_reference(doc: dict, tol: ToleranceConfig | None = None
                              ) -> Drawing:
    """doc_to_drawing as it checked a document before its checks ran in
    bulk: vertex rows, pairing entries and edge records one at a time, in
    order, each record through every check before the next."""
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
