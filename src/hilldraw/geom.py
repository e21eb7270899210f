"""Robust spherical primitives on arrays: unit rows, general position,
the row checks of arcs and half-circle witnesses, and the batched crossing
predicate everything else is built on.

Curves are rows of arrays, never objects: an arc is its endpoint pair, a
half-circle its endpoint and midpoint witness.  Every function works in
plain floating point with explicit margins.  A configuration that puts a
decision value inside the dead zone ``ToleranceConfig.sign`` is refused
with :class:`DegenerateConfigurationError`; callers are expected to
perturb or resample rather than tie-break silently.  The one-pair scalar
curves these kernels replaced live on in ``tests/oracles.py`` as their
references.
"""

from __future__ import annotations

import functools
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


def require_unit(v, tol: ToleranceConfig = DEFAULT_TOL) -> Vec3:
    v = np.asarray(v, dtype=float)
    if not abs(float(v @ v) - 1.0) <= tol.norm:
        raise ValueError(f"vector {v.tolist()} is not unit length within "
                         f"tolerance {tol.norm}")
    return v


def require_unit_rows(P, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Row-wise require_unit on an (m, 3) array: raises its ValueError for
    the first row that is not unit length, or not finite.  np.vecdot runs
    the dot loop of require_unit's v @ v, so the rows refused are its own
    (np.einsum rounds differently)."""
    P = np.asarray(P, dtype=float)
    bad = ~(np.abs(np.vecdot(P, P) - 1.0) <= tol.norm)
    for i in bad.nonzero()[0]:
        require_unit(P[i], tol)
    return P


def require_finite_rows(P, name: str) -> None:
    """Raise ValueError for the first row i of the (m, 3) array P that is
    not finite: "<name> i is not finite: [x, y, z]"."""
    P = np.asarray(P, dtype=float)
    bad = ~np.isfinite(P).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} {i} is not finite: {P[i].tolist()}")


def cross(a, b) -> np.ndarray:
    """np.cross(a, b) of float64 3-vectors over the last axis, broadcast,
    bit for bit: the same products and differences, a1*b2 - a2*b1 and so
    on, without np.cross's axis set-up."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast(a, b).shape)
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


def rotate(v, axis, angle: float) -> Vec3:
    """Rotate v about a unit axis by angle (right-hand rule), Rodrigues form."""
    v = np.asarray(v, dtype=float)
    a = unit(axis)
    c, s = math.cos(angle), math.sin(angle)
    return v * c + cross(a, v) * s + a * float(a @ v) * (1.0 - c)


def tile_rows(width: int) -> int:
    """Rows whose tile against ``width`` columns holds at most _TILE
    elements, and at least one."""
    return max(1, _TILE // max(1, width))


def row_blocks(rows: int, width: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) ranges of rows whose tiles against
    ``width`` columns hold at most _TILE elements (at least one row)."""
    step = tile_rows(width)
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


@functools.lru_cache(maxsize=64)
def upper_pairs(n: int) -> np.ndarray:
    """The pairs (i, j), i < j < n, of np.triu_indices(n, 1) as one
    read-only (C(n, 2), 2) array, kept for the last 64 sizes asked for:
    np.triu_indices costs about 24 us a call whatever n (2-CPU x86_64
    host)."""
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    pairs.flags.writeable = False
    return pairs


def has_coplanar_triple(points: np.ndarray, margin: float) -> bool:
    """True iff some triple i < j < l has |det[p_i p_j p_l]| <= margin,
    i.e. lies on a common great circle within the margin, or a NaN
    determinant, as from a non-finite point.  The C(n, 2)
    cross products p_i x p_j are computed once and dotted with every point
    in blocks of pairs."""
    n = len(points)
    ii, jj = upper_pairs(n).T
    pair_cross = cross(points[ii], points[jj])
    for start, stop in row_blocks(len(ii), n):
        dets = np.abs(pair_cross[start:stop] @ points.T)
        if (~(dets > margin) & (np.arange(n) > jj[start:stop, None])).any():
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


def arc_frames(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames (normal, wedge_u, wedge_v), each (E, 3), of the shorter arcs
    from A[e] to B[e]: N = (a x b)/|a x b|, U = b x N and V = N x a, so x
    is strictly inside the arc iff U . x > 0 and V . x > 0 (the scalar
    GeodesicArc of tests/oracles.py).  The endpoints are not checked; see
    require_arc_rows."""
    N = cross(A, B)
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    return N, cross(B, N), cross(N, A)


def require_arcs_apart(A, B, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Raise DegenerateConfigurationError unless every row of the (E, 3)
    arrays has |A[e] x B[e]| > tol.general_position: endpoints that are
    equal or antipodal within tolerance span no arc."""
    if not (np.linalg.norm(cross(A, B), axis=1) > tol.general_position).all():
        raise DegenerateConfigurationError(
            "arc endpoints are equal or antipodal within tolerance")


def require_arc_rows(A, B, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Endpoint checks of the arcs from A[e] to B[e], (E, 3) arrays, in
    row order: require_arcs_apart raises for the rows before the first
    row with an endpoint that is not unit or not finite, and then
    require_unit on that row's A[e], then B[e]; the unit tests are
    require_unit_rows'."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    unit_ends = ((np.abs(np.vecdot(A, A) - 1.0) <= tol.norm)
                 & (np.abs(np.vecdot(B, B) - 1.0) <= tol.norm))
    stop = len(A) if unit_ends.all() else int(np.argmin(unit_ends))
    require_arcs_apart(A[:stop], B[:stop], tol)
    if stop < len(A):
        require_unit(A[stop], tol)
        require_unit(B[stop], tol)


def loose_midpoints(P, M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """(E,) mask of the rows e where M[e] is not a unit vector orthogonal to
    P[e] within tol, i.e. where repair_midpoints changes the witness; NaN
    rows are loose.  As in require_unit_rows, np.vecdot runs the scalar
    m @ m and p @ m, so a row is loose exactly where the scalar fix would
    change it."""
    return ~((np.abs(np.vecdot(M, M) - 1.0) <= tol.norm)
             & (np.abs(np.vecdot(P, M)) <= tol.perp))


def repair_midpoints(P, M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """A copy of M whose loose rows e (see loose_midpoints) are replaced by
    the unit witness orthogonal to P[e], all at once; other rows keep
    their bits.

    Each loose row takes the scalar fix of tests/oracles.py's HalfCircle,
    in bulk: m = unit(m) where m is not unit, then, where |p . m| >
    tol.perp, m = (m - (p . m) p) / |m - (p . m) p|.  np.vecdot runs the
    dot loop of the scalar v @ v and p @ m, and its square root stands for
    np.linalg.norm, so every row has the scalar bits.  The first loose row
    refused raises, with the error's ``row`` set to its index: "midpoint
    witness is parallel to the endpoint" where |m - (p . m) p| <=
    tol.general_position, otherwise require_unit(P[e])'s or unit(M[e])'s
    ValueError.
    """
    P = np.asarray(P, dtype=float)
    M = np.array(M, dtype=float)
    rows = loose_midpoints(P, M, tol).nonzero()[0]
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
    fix = (np.abs(d) > tol.perp).nonzero()[0]
    m[fix] -= d[fix, None] * p[fix]
    nm = np.sqrt(np.vecdot(m[fix], m[fix]))
    parallel = fix[nm <= tol.general_position]
    if len(parallel) or stop < len(rows):
        e = int(rows[parallel[0] if len(parallel) else stop])
        try:
            if len(parallel):
                raise DegenerateConfigurationError(
                    "midpoint witness is parallel to the endpoint")
            require_unit(P[e], tol)
            unit(M[e])
        except (ValueError, DegenerateConfigurationError) as exc:
            exc.row = e
            raise
    m[fix] /= nm[:, None]
    M[rows] = m
    return M


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

    Fa and Fb are frames (N, U, V), each of N, U, V a stack of 3
    broadcastable component arrays: (N, U, V) from arc_frames for an arc,
    and (p x m, m, m) for a half-circle from p through its witness m.  With X = N_a x N_b it
    returns (crossing, nx, mags): whether the four triple products X . w,
    w in (U_a, V_a, U_b, V_b), share one strict sign; |X|, at most tol.sign
    for curves on one great circle; and min |X . w|, whose dead zone
    mags <= tol.sign * nx is min |(X / |X|) . w| <= tol.sign without the
    division.  The caller refuses both dead zones, as drawing._sweep does.
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
