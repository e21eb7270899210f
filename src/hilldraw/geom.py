"""Robust spherical primitives: unit vectors, orientation signs, geodesic arcs,
half-circles, and the crossing predicates everything else is built on.

All predicates are pure functions of immutable inputs and work in plain
floating point with explicit sign margins.  A configuration that puts any
decision value inside the dead zone ``ToleranceConfig.sign`` is refused with
:class:`DegenerateConfigurationError`; callers are expected to perturb or
resample rather than tie-break silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vec3 = np.ndarray


class DegenerateConfigurationError(Exception):
    """A predicate could not decide: the configuration is inside a dead zone."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric margins used by all geometric predicates.

    norm: slack on x^2 + y^2 + z^2 = 1 for unit vectors.
    perp: slack on p . m = 0 for half-circle midpoint witnesses.
    general_position: minimum |det| for a vertex triple to count as
        non-coplanar with the sphere's center.
    sign: dead zone of the sign predicates; values with |value| <= sign
        are refused instead of being tie-broken.
    """

    norm: float = 1e-12
    perp: float = 1e-12
    general_position: float = 1e-9
    sign: float = 1e-12

    def __post_init__(self):
        for name in ("norm", "perp", "general_position", "sign"):
            x = getattr(self, name)
            if not (x > 0.0 and math.isfinite(x)):
                raise ValueError(f"tolerance {name!r} must be strictly "
                                 "positive and finite")
        if self.sign >= self.general_position:
            raise ValueError("sign dead zone must be smaller than the "
                             "general-position margin")

    def to_dict(self) -> dict:
        return {
            "norm": self.norm,
            "perp": self.perp,
            "general_position": self.general_position,
            "sign": self.sign,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToleranceConfig":
        """Tolerances from a mapping; a missing key keeps its default.
        Raises ValueError for anything but a mapping of known keys to
        numbers, and for the margins __post_init__ rejects."""
        if not isinstance(d, dict):
            raise ValueError("tolerances must be an object")
        unknown = sorted(set(d) - set(cls().to_dict()))
        if unknown:
            raise ValueError(f"unknown tolerance keys: {', '.join(unknown)}")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                   for x in d.values()):
            raise ValueError("tolerance values must be numbers")
        try:
            return cls(**{k: float(x) for k, x in d.items()})
        except OverflowError:
            raise ValueError("tolerance values must be finite") from None


DEFAULT_TOL = ToleranceConfig()

# Elements per tile of the batched kernels.  Every kernel walks its index
# space in tiles of at most this many elements, which bounds its scratch
# memory whatever the input size.
_TILE = 1 << 15


def unit(v) -> Vec3:
    """Normalized copy of v; raises on (near-)zero or non-finite input."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    if not n < math.inf:
        raise ValueError("cannot normalize a vector of non-finite norm")
    return v / n


def is_unit(v, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    v = np.asarray(v, dtype=float)
    return abs(float(v @ v) - 1.0) <= tol.norm


def require_unit(v, tol: ToleranceConfig = DEFAULT_TOL) -> Vec3:
    v = np.asarray(v, dtype=float)
    if not is_unit(v, tol):
        raise ValueError(f"vector {v.tolist()} is not unit length within "
                         f"tolerance {tol.norm}")
    return v


def require_unit_rows(P, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Row-wise require_unit on an (m, 3) array: raises its ValueError for
    the first row that is not unit length, or not finite."""
    P = np.asarray(P, dtype=float)
    bad = ~(np.abs(np.einsum("ij,ij->i", P, P) - 1.0) <= tol.norm)
    for i in np.flatnonzero(bad):
        require_unit(P[i], tol)
    return P


def cross(a, b) -> np.ndarray:
    """np.cross(a, b) of float64 3-vectors over the last axis, broadcast,
    bit for bit: the same products and differences, a1*b2 - a2*b1 and so
    on, without np.cross's axis set-up."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0, c1, c2 = out[..., 0], out[..., 1], out[..., 2]
    np.multiply(a1, b2, out=c0)
    c0 -= a2 * b1
    np.multiply(a2, b0, out=c1)
    c1 -= a0 * b2
    np.multiply(a0, b1, out=c2)
    c2 -= a1 * b0
    return out


def antipode(p) -> Vec3:
    """The diametrically opposite point -p."""
    return -np.asarray(p, dtype=float)


def angular_distance(a, b) -> float:
    """Angle in radians between two unit vectors (stable near 0 and pi)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.atan2(float(np.linalg.norm(cross(a, b))), float(a @ b))


def rotate(v, axis, angle: float) -> Vec3:
    """Rotate v about a unit axis by angle (right-hand rule), Rodrigues form."""
    v = np.asarray(v, dtype=float)
    a = unit(axis)
    c, s = math.cos(angle), math.sin(angle)
    return v * c + cross(a, v) * s + a * float(a @ v) * (1.0 - c)


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


def row_blocks(rows: int, width: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) ranges of rows whose tiles against
    ``width`` columns hold at most _TILE elements (at least one row)."""
    step = max(1, _TILE // max(1, width))
    return [(s, min(s + step, rows)) for s in range(0, rows, step)]


def triangle_tiles(size: int) -> list[tuple[int, int, int, int]]:
    """Tiles (r0, r1, c0, c1) covering the pairs i < j < size in
    lexicographic order.

    Each tile pairs the rows [r0, r1) with the columns [c0, c1), where
    c0 = r0 + 1; pairs with j <= i inside a tile are the caller's to mask.
    A row wider than _TILE gets a tile of its own per column chunk, so a
    tile never exceeds _TILE elements.
    """
    out = []
    r = 0
    while r < size - 1:
        width = size - 1 - r
        if width > _TILE:
            out.extend((r, r + 1, c, min(c + _TILE, size))
                       for c in range(r + 1, size, _TILE))
            r += 1
        else:
            stop = min(r + _TILE // width, size - 1)
            out.append((r, stop, r + 1, size))
            r = stop
    return out


def has_coplanar_triple(points: np.ndarray, margin: float) -> bool:
    """True iff some triple i < j < l has |det[p_i p_j p_l]| <= margin,
    i.e. lies on a common great circle within the margin.  The C(n, 2)
    cross products p_i x p_j are computed once and dotted with every point
    in blocks of pairs."""
    n = len(points)
    ii, jj = np.triu_indices(n, 1)
    pair_cross = cross(points[ii], points[jj])
    for start, stop in row_blocks(len(ii), n):
        dets = np.abs(pair_cross[start:stop] @ points.T)
        if np.any((dets <= margin) & (np.arange(n) > jj[start:stop, None])):
            return True
    return False


def is_general_position(points, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff no three of the points lie on a common great circle.

    Every unordered triple must satisfy |det| > tol.general_position.
    Raises ValueError for fewer than 3 points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected an (n, 3) array of points")
    if len(pts) < 3:
        raise ValueError("general position needs at least 3 points")
    return not has_coplanar_triple(pts, tol.general_position)


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


def arc_frames(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames (normal, wedge_u, wedge_v), each (E, 3), of the arcs from
    A[e] to B[e], with GeodesicArc's formulas applied to all rows at once.
    The endpoints are not checked; see require_arc_rows."""
    N = cross(A, B)
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    return N, cross(B, N), cross(N, A)


def require_arc_rows(A, B, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Row-wise GeodesicArc endpoint checks on (E, 3) arrays: raises the
    error GeodesicArc(A[e], B[e], tol) raises for the first offending row
    e, a non-unit or non-finite endpoint before equal or antipodal
    endpoints."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    bad = ~((np.abs(np.einsum("ij,ij->i", A, A) - 1.0) <= tol.norm)
            & (np.abs(np.einsum("ij,ij->i", B, B) - 1.0) <= tol.norm)
            & (np.linalg.norm(cross(A, B), axis=1) > tol.general_position))
    for e in np.flatnonzero(bad):
        GeodesicArc(A[e], B[e], tol)


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


def loose_midpoints(P, M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """(E,) mask of the rows e where M[e] is not a unit vector orthogonal to
    P[e] within tol, i.e. where HalfCircle(P[e], M[e], tol) would change
    the witness; NaN rows are loose."""
    return ~((np.abs(np.einsum("ij,ij->i", M, M) - 1.0) <= tol.norm)
             & (np.abs(np.einsum("ij,ij->i", P, M)) <= tol.perp))


def repair_midpoints(P, M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """A copy of M whose loose rows e (see loose_midpoints) are replaced by
    HalfCircle(P[e], M[e], tol).m, all at once; other rows keep their bits.

    HalfCircle's own operations run on the loose rows in bulk: np.vecdot
    runs the dot loop of its v @ v and p @ m, and its square root stands
    for np.linalg.norm.  On the first row HalfCircle refuses, HalfCircle is
    built on that row, so that it raises its own error; the error's
    ``row`` is that row's index.
    """
    P = np.asarray(P, dtype=float)
    M = np.array(M, dtype=float)
    rows = np.flatnonzero(loose_midpoints(P, M, tol))
    if not len(rows):
        # the usual case but for random witnesses; the bulk steps below
        # have a fixed cost several times that of loose_midpoints
        return M
    p, m = P[rows], M[rows]
    # require_unit(p), then unit(m) where m is not unit: a row refused here
    # ends the bulk work, as no later row is needed
    mm = np.vecdot(m, m)
    norm = np.sqrt(mm)
    scale = ~(np.abs(mm - 1.0) <= tol.norm)
    refused = (~(np.abs(np.vecdot(p, p) - 1.0) <= tol.norm)
               | scale & ~((norm >= 1e-300) & (norm < math.inf)))
    stop = int(np.argmax(refused)) if refused.any() else len(rows)
    p, m, scale = p[:stop], m[:stop], scale[:stop]
    m[scale] /= norm[:stop, None][scale]
    d = np.vecdot(p, m)
    fix = np.flatnonzero(np.abs(d) > tol.perp)
    m[fix] -= d[fix, None] * p[fix]
    nm = np.sqrt(np.vecdot(m[fix], m[fix]))
    parallel = fix[nm <= tol.general_position]
    if len(parallel) or stop < len(rows):
        e = int(rows[parallel[0] if len(parallel) else stop])
        try:
            HalfCircle(P[e], M[e], tol)
        except (ValueError, DegenerateConfigurationError) as exc:
            exc.row = e
            raise
    m[fix] /= nm[:, None]
    M[rows] = m
    return M


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


def dot3(X, W):
    """Dot product of two stacks of 3 broadcastable component arrays."""
    out = X[0] * W[0]
    out += X[1] * W[1]
    out += X[2] * W[2]
    return out


def cross3(A, B):
    """Cross product of two stacks of 3 broadcastable component arrays."""
    return (A[1] * B[2] - A[2] * B[1], A[2] * B[0] - A[0] * B[2],
            A[0] * B[1] - A[1] * B[0])


def frame_signs(Fa, Fb):
    """Batched crossing predicate: curves Fa against curves Fb, broadcast.

    Fa and Fb are frames (N, U, V) as from curve_frame, each of N, U, V a
    stack of 3 broadcastable component arrays.  With X = N_a x N_b it
    returns (crossing, nx, mags): whether the four triple products X . w,
    w in (U_a, V_a, U_b, V_b), share one strict sign; |X|, at most tol.sign
    for curves on one great circle; and min |X . w|, whose dead zone
    mags <= tol.sign * nx is min |(X / |X|) . w| <= tol.sign without the
    division.  arcs_cross and its siblings refuse both dead zones.
    """
    (Na, Ua, Va), (Nb, Ub, Vb) = Fa, Fb
    X = cross3(Na, Nb)
    nx = np.sqrt(dot3(X, X))
    # one triple product at a time: fewer tile-sized arrays alive
    d = dot3(X, Ua)
    pos, neg = d > 0.0, d < 0.0
    mags = np.abs(d, out=d)
    for W in (Va, Ub, Vb):
        d = dot3(X, W)
        pos &= d > 0.0
        neg &= d < 0.0
        np.minimum(mags, np.abs(d, out=d), out=mags)
    pos |= neg
    return pos, nx, mags


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
