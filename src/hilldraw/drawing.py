"""Antipodal drawings on the sphere and exact crossing counting.

The central objects are an antipodal point configuration (k base points plus
their antipodes), a choice of matching half-circles, and drawings of the
complete graph and its matching-removed subgraphs whose crossing totals are
verified against closed-form integer counts.  A drawing is arrays only:
its vertices, Drawing.uv (the endpoints of each edge) and
Drawing.midpoints (NaN for an arc, the midpoint witness of a half-circle).

Every drawing is counted from the orientation signs of its vertices and
half-circle midpoints; where a triple is too close to coplanar, it is swept
over all edge pairs instead, tile by tile, through one batched predicate,
optionally on a process pool.  The sign counter and the sweep share no
arithmetic and cross-check each other.  A third counter walks tiles of
great-circle pairs on matching-free drawings; it cannot disagree with the
closed form there, and checks the attribution argument and that no
decision came near the dead zone.
"""

from __future__ import annotations

import multiprocessing
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .formulas import hill_number, partial_matching_target, per_vertex_target
from .geom import (DEFAULT_TOL, DegenerateConfigurationError,
                   ToleranceConfig, arc_frames, cross, cross3, dot3,
                   frame_signs, is_general_position, loose_midpoints,
                   repair_midpoints, require_arc_rows, require_unit,
                   require_unit_rows, row_blocks, triangle_tiles, unit)


class DrawingKind(str, Enum):
    """Graph kind of a drawing; verification dispatches on it."""

    COCKTAIL_PARTY = "cocktail_party"          # complete minus perfect matching
    PARTIAL_MATCHING = "partial_matching"      # complete minus partial matching
    COMPLETE = "complete"
    COMPLETE_MINUS_VERTEX = "complete_minus_vertex"
    COMPLETE_PLUS_APEX = "complete_plus_apex"


@dataclass(frozen=True)
class AntipodalConfig:
    """k base points in general position plus their exact antipodes.

    ``doubled`` holds the base points at indices 0..k-1 followed by their
    antipodes at indices k..2k-1; vertex i is paired with i +- k.
    """

    base: np.ndarray
    doubled: np.ndarray

    @property
    def k(self) -> int:
        return len(self.base)

    @property
    def n(self) -> int:
        return 2 * len(self.base)

    def partner(self, i: int) -> int:
        k = self.k
        return i + k if i < k else i - k

    def pairing(self) -> dict[int, int]:
        return {i: self.partner(i) for i in range(self.n)}


def double(points, tol: ToleranceConfig = DEFAULT_TOL) -> AntipodalConfig:
    """Double a general-position base set with exact antipodes.

    Every triple of doubled points that contains no antipodal pair is then
    automatically non-coplanar, since negating one argument only flips the
    determinant's sign.
    """
    return _double(points, tol, checked=False)


def _double(points, tol: ToleranceConfig, checked: bool) -> AntipodalConfig:
    """double, without the general-position test where ``checked``."""
    base = np.asarray(points, dtype=float)
    if base.ndim != 2 or base.shape[1] != 3:
        raise ValueError("expected an (k, 3) array of base points")
    if len(base) < 3:
        raise ValueError("an antipodal configuration needs k >= 3 base points")
    require_unit_rows(base, tol)
    if not checked and not is_general_position(base, tol):
        raise DegenerateConfigurationError(
            "base points are not in general position")
    doubled = np.concatenate([base, -base], axis=0)
    return AntipodalConfig(base=base, doubled=doubled)


@dataclass(frozen=True)
class HalfCircleAssignment:
    """One midpoint witness per antipodal pair, fixing the matching edges;
    midpoints[i] is orthonormal to base point i."""

    midpoints: np.ndarray


def make_assignment(config: AntipodalConfig, midpoints,
                    tol: ToleranceConfig = DEFAULT_TOL) -> HalfCircleAssignment:
    """Validate and orthonormalize midpoints against their base points:
    orthonormal rows are kept bit for bit, others are repaired as
    HalfCircle would (geom.repair_midpoints)."""
    mids = np.asarray(midpoints, dtype=float)
    if mids.shape != config.base.shape:
        raise ValueError("need exactly one midpoint per base point")
    fixed = repair_midpoints(config.base, mids, tol)
    # midpoints must not coincide with any configuration vertex
    align = np.abs(fixed @ config.doubled.T)
    if np.any(align >= 1.0 - tol.general_position):
        i, j = np.unravel_index(int(np.argmax(align)), align.shape)
        raise DegenerateConfigurationError(
            f"midpoint {i} coincides with vertex {j} within tolerance")
    return HalfCircleAssignment(midpoints=fixed)


_MAX_TRIES = 64     # samples before a random assignment or apex gives up


def random_assignment(config: AntipodalConfig, rng,
                      tol: ToleranceConfig = DEFAULT_TOL
                      ) -> HalfCircleAssignment:
    """Assignment with uniformly random midpoint witnesses (any strength)."""
    for _ in range(_MAX_TRIES):
        raw = rng.normal(size=(config.k, 3))
        try:
            return make_assignment(config, raw, tol)
        except DegenerateConfigurationError:
            continue
    raise DegenerateConfigurationError(
        "could not sample a valid midpoint assignment")


@dataclass
class Drawing:
    """A spherical drawing: vertices, edge arrays, and metadata.

    The e-th edge joins the vertices uv[e] = (u, v): the shorter arc if
    midpoints[e] is NaN, else the half-circle from vertices[u] through that
    unit midpoint witness to -vertices[u].  ``vertices``, ``uv`` (E, 2)
    and ``midpoints`` (E, 3) are read-only copies of the arrays passed in,
    so the orientation signs validation computes, which count_crossings
    reuses, cannot go stale.

    ``pairing`` maps each vertex to its antipodal partner where one exists;
    it is structural metadata (never inferred geometrically) and drives both
    the graph-kind bookkeeping and the counting skip rules.
    """

    vertices: np.ndarray
    kind: DrawingKind
    uv: np.ndarray
    midpoints: np.ndarray
    pairing: dict[int, int] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    tol: ToleranceConfig = DEFAULT_TOL
    # the last _orientation_signs result, see _cached_signs
    _signs: tuple | None = field(default=None, init=False, compare=False,
                                 repr=False)

    def __post_init__(self):
        self.vertices = np.array(self.vertices, dtype=float)
        self.uv = np.array(self.uv, dtype=np.int64).reshape(-1, 2)
        self.midpoints = np.array(self.midpoints, dtype=float).reshape(-1, 3)
        if len(self.midpoints) != len(self.uv):
            raise ValueError("need one midpoint row per edge")
        for a in (self.vertices, self.uv, self.midpoints):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def half(self) -> np.ndarray:
        """(E,) mask of the half-circle edges: rows not all NaN."""
        return ~np.isnan(self.midpoints).all(axis=1)

    def matching_size(self) -> int:
        """Number of matching edges missing from the complete graph."""
        return self.n * (self.n - 1) // 2 - len(self.uv)


def validate_drawing(d: Drawing) -> None:
    """Check structural and geometric invariants; raise on violation.

    Geometric failures (arc endpoints equal or antipodal, a vertex inside
    an edge's curve) raise DegenerateConfigurationError; structural
    mismatches raise ValueError.  Edges are checked in order and the first
    offending edge is reported.

    The orientation signs of the sign counter are computed here, once, and
    kept on d for count_crossings.  Where their guard covers the vertex
    off-curve test (see _off_curve_bound) that test is skipped, since no
    vertex can fail it; otherwise it runs as it is.
    """
    n = d.n
    verts = require_unit_rows(d.vertices, d.tol)
    if d.pairing:
        # the first entry a -> b in dict order with an index outside
        # [0, n) is reported, then the first with pairing.get(b) != a, or
        # verts[b] != -verts[a]
        a, b = np.array([*d.pairing.items()], dtype=np.int64).T
        outside = (a < 0) | (a >= n) | (b < 0) | (b >= n)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(f"pairing entry {a[i]} -> {b[i]} names a "
                             f"vertex outside [0, {n})")
        order = np.argsort(a)
        at = order[np.searchsorted(a, b, sorter=order) % len(a)]
        skew = (a[at] != b) | (b[at] != a)
        bad = skew | (verts[b] != -verts[a]).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError("pairing map is not symmetric" if skew[i] else
                             f"paired vertices {a[i]},{b[i]} are not exact "
                             "antipodes")

    uv, half = d.uv, d.half
    u, v = uv[:, 0], uv[:, 1]
    invalid = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    u, v = np.clip(u, 0, n - 1), np.clip(v, 0, n - 1)
    key = np.minimum(u, v) * n + np.maximum(u, v)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    duplicate = first[inverse] != np.arange(len(key))
    paired = _partners(d)[u] == v
    loose = half & loose_midpoints(verts[u], d.midpoints, d.tol)
    bad = invalid | duplicate | (half & ~paired) | loose | (~half & paired)
    if bad.any():
        i = int(np.argmax(bad))
        eu, ev = uv[i].tolist()
        if invalid[i]:
            raise ValueError(f"edge ({eu},{ev}) has invalid endpoints")
        if duplicate[i]:
            raise ValueError(f"duplicate edge ({eu},{ev})")
        if half[i] and not paired[i]:
            raise ValueError(
                f"half-circle edge ({eu},{ev}) does not join a paired "
                "antipodal couple")
        if half[i]:
            raise ValueError(f"half-circle edge ({eu},{ev}) midpoint is not "
                             "a unit vector orthogonal to its endpoint")
        raise ValueError(f"matching edge ({eu},{ev}) must be a half-circle")

    require_arc_rows(verts[u[~half]], verts[v[~half]], d.tol)
    _check_edge_census(d, int(half.sum()))
    if not _stage_clears(d, d.tol):
        _check_vertices_off_curves(d)


def _check_edge_census(d: Drawing, matching_edges: int) -> None:
    n = d.n
    complete = n * (n - 1) // 2
    npairs = len(d.pairing) // 2
    got = len(d.uv)
    if d.kind is DrawingKind.COCKTAIL_PARTY:
        want = complete - npairs
        if n % 2 != 0 or npairs != n // 2 or got != want or matching_edges:
            raise ValueError(
                f"cocktail-party drawing on {n} vertices must have "
                f"{complete - n // 2} arc edges and a full pairing")
    elif d.kind is DrawingKind.PARTIAL_MATCHING:
        if n % 2 != 0 or npairs != n // 2:
            raise ValueError("partial-matching drawing needs a full pairing")
        t = complete - got
        if not 0 <= t <= n // 2:
            raise ValueError(f"edge count {got} matches no valid matching size")
    else:
        if got != complete:
            raise ValueError(
                f"{d.kind.value} drawing must contain all {complete} edges, "
                f"got {got}")


def _off_curve_bound(tol: ToleranceConfig) -> float:
    """Least unmasked |det| of _orientation_signs above which no vertex
    can fail _check_vertices_off_curves.

    The test refuses vertex w on edge e if |N.w| <= g = tol.general_position
    and w lies in e's wedge.  Every vertex w off e's ends meets e in a triple
    that _orientation_signs guards: (a, b, w) for an arc ab, (p, m, w) for
    a half-circle from p through m, unless w is the partner of an end.
    Such a w = -a is masked, but it can never trip the test: it lies
    outside the arc's wedge, as U.(-a) = -(b x N).a = -N.(a x b) =
    -|a x b| and likewise V.(-b) = -|a x b|, and require_arc_rows passed
    only arcs with |a x b| > g, far beyond rounding.  A half-circle's
    partners are its own ends, which the test exempts.

    On the guarded triples, with u = 2^-53 and s = 1 + tol.norm, so that
    validated points have |x|^2 <= s: the stage's det = (a x b).w has an
    error of at most gamma_5 sum |a_i b_j w_k| <= 5u sqrt(3) s^1.5 (a cross
    product, then a three-term dot product).  For a half-circle, N.w =
    (p x m).w is the same determinant, evaluated again with the same error
    bound.  For an arc, N = fl(a x b) / |fl(a x b)|, where fl(a x b) is
    off by at most 2u sqrt(2) s, |a x b| <= s, the normalization costs a
    few u relative, and the dot product 3u |N||w|.  So |N.w| exceeds
    (|det| - 3u s^1.5) / (s (1 + 5u)) - 4u sqrt(s), and the test cannot
    fire once the stage's |det| exceeds s g (1 + 10u) + 21u s^2.  The
    bound (g + 1e-14) s^2 is larger for every g a guard can pass, as such
    a g is below |det| <= s^1.5.

    No other test |det| <= g of a guarded triple can fire then either.
    Two evaluations of one determinant, each a cross product and a dot
    product within gamma_5 sum |a_i b_j w_k| of it, differ by at most
    10u sqrt(3) s^1.5 < 2e-15, so where the stage's |det| exceeds
    (g + 1e-14) s^2 >= g + 1e-14, every other evaluation exceeds g.  That
    covers add_apex's coplanar test |(v_i x q).v_j| <= g, which is
    -det(v_i, v_j, q) in another order, on every pair the apex drawing's
    stage guards (all but the couples the test exempts), and double's
    test on the base points of a drawing.  add_apex's on-curve test is
    _check_vertices_off_curves for w = q.
    """
    return (tol.general_position + 1e-14) * (1.0 + tol.norm) ** 2


def _stage_clears(d: Drawing, tol: ToleranceConfig) -> bool:
    """Whether d's stage (see _cached_signs) clears _off_curve_bound."""
    posT, least = _cached_signs(d, tol)
    return posT is not None and least > _off_curve_bound(tol)


def _check_vertices_off_curves(d: Drawing) -> None:
    """No vertex may lie in the interior of any edge's curve."""
    N, U, V, uv, _ = _pack_drawing(d)
    verts = d.vertices
    for start, stop in row_blocks(len(N), d.n):
        rows = np.arange(stop - start)[:, None]
        bad = ((np.abs(N[start:stop] @ verts.T) <= d.tol.general_position)
               & (U[start:stop] @ verts.T > 0.0)
               & (V[start:stop] @ verts.T > 0.0))
        bad[rows, uv[start:stop]] = False
        if bad.any():
            idx, w = np.unravel_index(int(np.argmax(bad)), bad.shape)
            eu, ev = d.uv[start + idx].tolist()
            raise DegenerateConfigurationError(
                f"vertex {w} lies on edge ({eu},{ev}) within tolerance")


def _arc_midpoints(uv: np.ndarray) -> np.ndarray:
    """The NaN midpoint rows of the arc edges uv."""
    return np.full((len(uv), 3), np.nan)


def _cocktail_uv(config: AntipodalConfig) -> np.ndarray:
    """Every non-antipodal pair i < j of the doubled set, as (E, 2)."""
    uv = np.stack(np.triu_indices(config.n, 1), axis=1)
    return uv[uv[:, 1] != uv[:, 0] + config.k]


def complete_drawing_from_points(points, tol: ToleranceConfig = DEFAULT_TOL,
                                 provenance: dict | None = None) -> Drawing:
    """Geodesic drawing of the complete graph on arbitrary sphere points.

    No antipodal structure is assumed or recorded; all edges are shorter
    arcs.  Used for random drawings.
    """
    verts = np.asarray(points, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) < 4:
        raise ValueError("expected an (n, 3) array with n >= 4")
    uv = np.stack(np.triu_indices(len(verts), 1), axis=1)
    d = Drawing(vertices=verts, kind=DrawingKind.COMPLETE, uv=uv,
                midpoints=_arc_midpoints(uv), pairing={},
                provenance=dict(provenance or {}), tol=tol)
    validate_drawing(d)
    return d


def build_cocktail_party(config: AntipodalConfig,
                         tol: ToleranceConfig = DEFAULT_TOL,
                         provenance: dict | None = None) -> Drawing:
    """Join every non-antipodal pair of the doubled set by its shorter arc.

    The result is the complete graph minus the antipodal perfect matching,
    drawn with 2k^2 - 2k geodesic edges.
    """
    uv = _cocktail_uv(config)
    d = Drawing(vertices=config.doubled,
                kind=DrawingKind.COCKTAIL_PARTY, uv=uv,
                midpoints=_arc_midpoints(uv),
                pairing=config.pairing(),
                provenance=dict(provenance or {}),
                tol=tol)
    validate_drawing(d)
    return d


def strength(config: AntipodalConfig, asg: HalfCircleAssignment,
             tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of crossing pairs among the k matching half-circles."""
    return len(half_circle_crossings(config.base, asg.midpoints, tol))


def extend_partial_matching(config: AntipodalConfig,
                            asg: HalfCircleAssignment,
                            chosen,
                            tol: ToleranceConfig = DEFAULT_TOL,
                            provenance: dict | None = None) -> Drawing:
    """Add matching half-circles for the chosen pair indices only.

    With every pair chosen this is the full complete-graph drawing; with no
    pair chosen it degenerates to the matching-free drawing.
    """
    d = _matching_drawing(config, asg, chosen, tol, provenance)
    validate_drawing(d)
    return d


def _matching_drawing(config: AntipodalConfig, asg: HalfCircleAssignment,
                      chosen, tol: ToleranceConfig,
                      provenance: dict | None) -> Drawing:
    """extend_partial_matching's drawing, not yet validated."""
    chosen = sorted(set(int(i) for i in chosen))
    k = config.k
    if chosen and not (0 <= chosen[0] and chosen[-1] < k):
        raise ValueError(f"pair indices must lie in [0, {k})")
    arcs = _cocktail_uv(config)
    halves = np.array([(i, i + k) for i in chosen], dtype=np.int64)
    uv = np.concatenate([arcs, halves.reshape(-1, 2)])
    midpoints = np.concatenate([_arc_midpoints(arcs),
                                asg.midpoints[chosen]])
    t = k - len(chosen)
    if t == 0:
        kind = DrawingKind.COMPLETE
    elif t == k:
        kind = DrawingKind.COCKTAIL_PARTY
    else:
        kind = DrawingKind.PARTIAL_MATCHING
    prov = dict(provenance or {})
    prov.setdefault("matching_pairs", chosen)
    return Drawing(vertices=config.doubled, kind=kind, uv=uv,
                   midpoints=midpoints, pairing=config.pairing(),
                   provenance=prov, tol=tol)


def extend_to_complete(config: AntipodalConfig, asg: HalfCircleAssignment,
                       tol: ToleranceConfig = DEFAULT_TOL,
                       provenance: dict | None = None) -> Drawing:
    """The full drawing: all arcs plus all k matching half-circles."""
    return extend_partial_matching(config, asg, range(config.k), tol,
                                   provenance)


def delete_vertex(d: Drawing, v: int,
                  tol: ToleranceConfig | None = None) -> Drawing:
    """Remove one vertex and its incident edges from a complete drawing.

    Surviving vertices are reindexed in order; the pairing keeps every
    untouched antipodal couple (the deleted vertex's partner stays,
    unpaired).  v is any integer (operator.index) but a bool, and is
    recorded in the provenance as a plain int.
    """
    tol = tol or d.tol
    if d.kind is not DrawingKind.COMPLETE:
        raise ValueError("vertex deletion expects a complete-graph drawing")
    if isinstance(v, bool):
        raise TypeError(f"vertex index must be an integer, got {v!r}")
    try:
        v = operator.index(v)
    except TypeError:
        raise TypeError(
            f"vertex index must be an integer, got {v!r}") from None
    if not 0 <= v < d.n:
        raise ValueError(f"vertex index {v} out of range")
    rows = (d.uv != v).all(axis=1)
    uv = d.uv[rows]
    pairing = {a - (a > v): b - (b > v) for a, b in d.pairing.items()
               if v not in (a, b)}
    prov = dict(d.provenance)
    prov["deleted_vertex"] = v
    out = Drawing(vertices=np.delete(d.vertices, v, axis=0),
                  kind=DrawingKind.COMPLETE_MINUS_VERTEX,
                  uv=uv - (uv > v), midpoints=d.midpoints[rows],
                  pairing=pairing, provenance=prov, tol=tol)
    validate_drawing(out)
    return out


def add_apex(config: AntipodalConfig, asg: HalfCircleAssignment, q,
             tol: ToleranceConfig = DEFAULT_TOL,
             provenance: dict | None = None) -> Drawing:
    """Extend the full drawing by one new vertex joined to all others.

    The apex must be in general position with respect to the doubled set:
    every triple through q and two non-antipodal vertices non-coplanar, and
    q off every existing edge's curve.  Violations raise
    DegenerateConfigurationError; callers should resample q.  The apex
    drawing is built first and its orientation stage read: where it clears
    _off_curve_bound over unit vectors, as that bound assumes, neither
    check can fire and both are skipped.  The apex drawing is validated
    once, as part of the result, reusing the stage.
    """
    q = require_unit(q, tol)
    base_drawing = _matching_drawing(config, asg, range(config.k), tol,
                                     provenance)
    verts = base_drawing.vertices
    n = len(verts)
    cols = np.arange(n)
    spokes = np.stack([cols, np.full(n, n)], axis=1)
    prov = dict(provenance or {})
    prov["apex"] = [float(c) for c in q]
    out = Drawing(vertices=np.concatenate([verts, q[None, :]], axis=0),
                  kind=DrawingKind.COMPLETE_PLUS_APEX,
                  uv=np.concatenate([base_drawing.uv, spokes]),
                  midpoints=np.concatenate([base_drawing.midpoints,
                                            _arc_midpoints(spokes)]),
                  pairing=dict(base_drawing.pairing), provenance=prov,
                  tol=tol)
    pts = np.concatenate([verts, asg.midpoints])
    if not (_stage_clears(out, tol) and np.all(np.abs(np.einsum(
            "ij,ij->i", pts, pts) - 1.0) <= tol.norm)):
        # n^2 dets at once: far less memory than the stage's P^3 / 8 bytes
        N, U, V, _, partner = _pack_drawing(base_drawing)
        # triples through an antipodal pair are exempt
        bad = ((np.abs(cross(verts, q) @ verts.T) <= tol.general_position)
               & (cols > cols[:, None]) & (cols != partner[:, None]))
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise DegenerateConfigurationError(
                f"apex is coplanar with vertices {i},{j}; resample the apex")
        on_curve = ((np.abs(N @ q) <= tol.general_position)
                    & (U @ q > 0.0) & (V @ q > 0.0))
        if on_curve.any():
            eu, ev = base_drawing.uv[int(np.argmax(on_curve))].tolist()
            raise DegenerateConfigurationError(
                f"apex lies on edge ({eu},{ev}); resample the apex")
    validate_drawing(out)
    return out


def config_from_drawing(d: Drawing
                        ) -> tuple[AntipodalConfig, HalfCircleAssignment]:
    """Recover the configuration and matching assignment of a complete
    antipodal drawing, e.g. one loaded from a file.

    Base points are the smaller-index vertex of each antipodal pair, in
    index order, which reproduces the indexing the builders emit.  Their
    general position is not tested again where d's stage clears
    _off_curve_bound and guards all their triples.
    """
    if d.kind is not DrawingKind.COMPLETE or not d.pairing:
        raise ValueError("expected a complete drawing with an antipodal "
                         "pairing")
    reps = sorted(a for a, b in d.pairing.items() if a < b)
    if 2 * len(reps) != d.n:
        raise ValueError("pairing does not cover all vertices")
    half = d.half
    lower = d.uv[half].min(axis=1)
    order = np.argsort(lower)
    if lower[order].tolist() != reps:
        raise ValueError("drawing lacks a matching half-circle per pair")
    # the stage masks a base triple only where two of its points are paired
    guarded = {d.pairing[a] for a in reps}.isdisjoint(reps)
    config = _double(d.vertices[reps], d.tol,
                     checked=guarded and _stage_clears(d, d.tol))
    asg = make_assignment(config, d.midpoints[half][order], d.tol)
    return config, asg


def add_random_apex(config: AntipodalConfig, asg: HalfCircleAssignment,
                    rng, tol: ToleranceConfig = DEFAULT_TOL,
                    provenance: dict | None = None) -> Drawing:
    """Sample uniform apexes until one is accepted by :func:`add_apex`.

    If the first apex is refused, the full drawing is validated on its own:
    when it is at fault no apex can help, so its own error is raised.
    """
    for attempt in range(_MAX_TRIES):
        q = unit(rng.normal(size=3))
        try:
            return add_apex(config, asg, q, tol, provenance)
        except DegenerateConfigurationError:
            if attempt == 0:
                extend_to_complete(config, asg, tol, provenance)
    raise DegenerateConfigurationError(
        f"no valid apex found in {_MAX_TRIES} samples")


# ---------------------------------------------------------------------------
# crossing counting
# ---------------------------------------------------------------------------

class CrossingReport:
    """Totals and participation counts for one drawing.

    ``pairs`` is a lexicographically sorted integer array of shape
    (total, 2).  Every crossing involves 2 edges and 4 distinct endpoints,
    so per_edge sums to 2 * total and per_vertex to 4 * total.  ``pairs``
    may be given as a zero-argument callable instead of an array; it is
    then called on the first read and its array kept.
    """

    __slots__ = ("total", "per_edge", "per_vertex", "_pairs")

    def __init__(self, total: int, per_edge: np.ndarray,
                 per_vertex: np.ndarray, pairs):
        self.total = total
        self.per_edge = per_edge
        self.per_vertex = per_vertex
        self._pairs = pairs

    @property
    def pairs(self) -> np.ndarray:
        if callable(self._pairs):
            self._pairs = self._pairs()
        return self._pairs

    def pair_set(self) -> frozenset:
        return frozenset(map(tuple, self.pairs.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossingReport):
            return NotImplemented
        return (self.total == other.total
                and np.array_equal(self.per_edge, other.per_edge)
                and np.array_equal(self.per_vertex, other.per_vertex)
                and np.array_equal(self.pairs, other.pairs))


def _partners(d: Drawing) -> np.ndarray:
    """Antipodal partner of each vertex, or -1 for an unpaired one."""
    partner = np.full(d.n, -1, dtype=np.int64)
    partner[list(d.pairing)] = list(d.pairing.values())
    return partner


def _pack_drawing(d: Drawing):
    """Arrays consumed by the vectorized predicates: edge frames N, U, V
    (each (E, 3)), endpoints uv and the partner map.

    The frames are curve_frame's, built in bulk: (unit(a x b), b x N,
    N x a) for an arc ab, and (p x m, m, m) for a half-circle.
    """
    uv, half = d.uv, d.half
    E = len(uv)
    N, U, V = (np.empty((E, 3)) for _ in range(3))
    arcs = uv[~half]
    N[~half], U[~half], V[~half] = arc_frames(d.vertices[arcs[:, 0]],
                                              d.vertices[arcs[:, 1]])
    mids = d.midpoints[half]
    N[half] = cross(d.vertices[uv[half, 0]], mids)
    U[half] = V[half] = mids
    return N, U, V, uv, _partners(d)


def _sweep(packed, tiles, sign_tol) -> np.ndarray:
    """Crossing pairs (i, j) inside the given triangle tiles, as an (m, 2)
    array in tile order; lexicographic tiles give lexicographic pairs.

    Pairs sharing a vertex are adjacent and skipped.  Pairs whose endpoint
    sets split an antipodal couple (one vertex on each edge) are skipped as
    well: their great circles meet exactly on that vertex axis, so the open
    curves can never cross there, and the predicate would sit on a
    structural zero.  Every other pair goes through geom.frame_signs, whose
    dead zone compares the raw triple products against sign_tol scaled by
    |n_i x n_j|.

    The first refused pair in lexicographic order is reported; within its
    row, a pair on the same great circle is reported before a pair in the
    sign dead zone.
    """
    N, U, V, uv, partner = packed
    E, n = len(N), len(partner)
    frames = tuple(np.ascontiguousarray(M.T) for M in (N, U, V))
    # vertices that skip a pair when the other edge touches them: the
    # edge's endpoints and their partners; unpaired (-1) maps to column n,
    # which no edge touches
    skip = np.concatenate([uv, partner[uv]], axis=1)
    skip[skip < 0] = n

    def tile(r0, r1, c0, c1):
        crossing, nx, mags = frame_signs(
            tuple(M[:, r0:r1, None] for M in frames),
            tuple(M[:, None, c0:c1] for M in frames))
        blocked = np.zeros((r1 - r0, n + 1), dtype=bool)
        blocked[np.arange(r1 - r0)[:, None], skip[r0:r1]] = True
        active = ~(blocked[:, uv[c0:c1, 0]] | blocked[:, uv[c0:c1, 1]])
        if r1 - r0 > 1:
            active &= np.arange(c0, c1) > np.arange(r0, r1)[:, None]
        return (crossing & active, active & (nx <= sign_tol),
                active & (mags <= sign_tol * nx))

    def same_circle(i, j):
        return DegenerateConfigurationError(
            f"edges {i} and {j} lie on the same great circle within "
            "tolerance")

    found = []
    for r0, r1, c0, c1 in tiles:
        crossing, same, dead = tile(r0, r1, c0, c1)
        if same.any() or dead.any():
            rs = np.flatnonzero(same.any(axis=1))
            rd = np.flatnonzero(dead.any(axis=1))
            if len(rs) and (not len(rd) or rs[0] <= rd[0]):
                r = rs[0]
                raise same_circle(r0 + r, c0 + int(np.argmax(same[r])))
            r = rd[0]
            i, j = r0 + r, c0 + int(np.argmax(dead[r]))
            # a row split over column chunks: look ahead for a same-circle
            # pair in the rest of row i, which is reported first
            for c in range(c1, E, c1 - c0):
                same = tile(i, i + 1, c, min(c + c1 - c0, E))[1][0]
                if same.any():
                    raise same_circle(i, c + int(np.argmax(same)))
            raise DegenerateConfigurationError(
                f"edge pair ({i},{j}) falls in the sign dead zone")
        rows, cols = np.nonzero(crossing)
        found.append(np.stack([rows + r0, cols + c0], axis=1,
                              dtype=np.int32))
    if not found:
        return np.empty((0, 2), dtype=np.int64)
    # int32 tile blocks: the pair list is held 1.5 times at the join, not 2
    return np.concatenate(found, axis=0, dtype=np.int64)


def half_circle_crossings(P, M, tol: ToleranceConfig = DEFAULT_TOL
                          ) -> np.ndarray:
    """Crossing pairs (i, j) among the half-circles from P[i] through the
    orthonormal midpoint M[i], both (k, 3) arrays, as _sweep returns them.

    The sweep runs over the half-circles' frames (P x M, M, M); half-circle
    i joins the vertices i and i + k, so no pair is skipped.  The first pair
    on one great circle or in the dead zone raises
    DegenerateConfigurationError.
    """
    k = len(P)
    uv = np.stack([np.arange(k), np.arange(k, 2 * k)], axis=1)
    return _sweep((cross(P, M), M, M, uv, np.full(2 * k, -1)),
                  triangle_tiles(k), tol.sign)


_POOL_DATA = None


def _pool_worker(args):
    tiles, sign_tol = args
    return _sweep(_POOL_DATA, tiles, sign_tol)


def _sweep_pairs(packed, sign_tol: float, workers: int) -> np.ndarray:
    """All crossing pairs in lexicographic order: _sweep over every tile,
    serially or dealt out over a process pool and merged."""
    E = len(packed[0])
    tiles = triangle_tiles(E)
    if workers <= 1 or E < 64:
        return _sweep(packed, tiles, sign_tol)
    global _POOL_DATA
    _POOL_DATA = packed
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            chunks = pool.map(_pool_worker,
                              [(tiles[w::workers], sign_tol)
                               for w in range(workers)])
        pairs = np.concatenate(chunks, axis=0)
    finally:
        _POOL_DATA = None
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# Smallest |det| whose computed sign the sign counter trusts, whatever
# tol.general_position: rounding moves the determinants of unit vectors,
# and the sweep's triple products, by well under 1e-14.
_DET_FLOOR = 1e-13


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bool rows, of a multiple of 64 entries, as little-endian uint64s."""
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


def _orientation_signs(d: Drawing, key: float):
    """The orientation stage of the sign counter: (posT, least).

    The points are d's n vertices followed by one midpoint witness m per
    half-circle edge, in edge order; posT[a, w, c] is word w of the
    bitset pos[a, c] of the points x with det(a,c,x) > 0, and least is the
    smallest |det| of an unmasked triple.

    Masks and guard.  Three kinds of triple are masked by index, never by
    size: a repeated index (det(a,b,a) is about 1e-17, not 0), an
    antipodal couple of d.pairing (det(a,b,-a) likewise; the sweep skips
    every edge pair that splits a couple, such as a quarter arc (p, m)
    and an arc at -p), and three midpoints (every arc has at most one, so
    no arc pair uses such a triple, while blowups put many midpoints on
    one great circle).  A masked triple has neither sign, so a rule that
    needs it finds nothing.  If any other triple has |det| <= margin =
    key + max |p.m|, posT is None and least is the smallest |det| seen up
    to that block, at most margin.  A point that is not finite gives no
    signs either (least is NaN): masked determinants are NaN here, so
    determinants made NaN by such a point would pass for masked ones.

    The P^2 cross products a x b are computed once, and rows a in [a0, a1)
    are dotted with every point only for b >= a0: geom.cross takes each
    component as a difference of two rounded products, a1 b2 - a2 b1 and
    so on, which swapping a and b swaps, so cross(b, a) = -cross(a, b)
    exactly and det(b,a,c) = -det(a,b,c) bit for bit; thus
    pos[b, a] for b >= a1 is det(a,b,c) < 0, and with masks symmetric in
    a triple, posT, least and the guard are those of all P^3 triples.
    """
    n = d.n
    hidx = np.flatnonzero(d.half)
    ends, mids = d.vertices[d.uv[hidx, 0]], d.midpoints[hidx]
    pts = np.concatenate([d.vertices, mids])
    P = len(pts)
    if not np.isfinite(pts).all():
        return None, np.nan
    margin = key + float(
        np.abs(np.einsum("ij,ij->i", ends, mids)).max(initial=0.0))

    words = (P + 63) // 64
    posT = np.empty((P, words, P), dtype=np.uint64)
    idx = np.arange(P)
    partner = np.concatenate([_partners(d), np.full(len(hidx), -1)])
    # pair[x, y]: x = y or an antipodal couple, masked in every triple
    pair = (idx[:, None] == idx) | (partner[:, None] == idx)
    mid = idx >= n
    pair_cross = cross(pts[:, None], pts)
    # the rows [a0, a1) of a block against the columns b >= a0, in one
    # tile of row_blocks; fresh dets arrays of varying size cost more
    blocks, a0 = [], 0
    while a0 < P:
        blocks.append((a0, a0 + row_blocks(P - a0, (P - a0) * P)[0][1]))
        a0 = blocks[-1][1]
    dets_buf = np.empty(P * max(((a1 - a0) * (P - a0) for a0, a1 in blocks),
                                default=0))
    least = np.inf
    for a0, a1 in blocks:
        r = a1 - a0
        # dets[r, b - a0, c] = det(a0 + r, b, c)
        dets = dets_buf[:r * (P - a0) * P].reshape(r, -1, P)
        np.matmul(pair_cross[a0:a1, a0:].reshape(-1, 3), pts.T,
                  out=dets.reshape(-1, P))
        masked = pair[a0:a1, a0:, None] | pair[a0:a1, None, :] | pair[a0:]
        if len(hidx):
            masked |= mid[a0:a1, None, None] & mid[a0:, None] & mid
        # a masked det is NaN: it has neither sign, and fmin skips it
        np.copyto(dets, np.nan, where=masked)
        bits = np.zeros((r, P - a0, 64 * words), dtype=bool)
        np.greater(dets, 0.0, out=bits[..., :P])
        posT[a0:a1, :, a0:] = _pack(bits).transpose(0, 2, 1)
        if a1 < P:  # pos[b, a], b >= a1, from det(b,a,c) = -det(a,b,c)
            np.less(dets[:, r:], 0.0, out=bits[:, r:, :P])
            posT[a1:, :, a0:a1] = _pack(bits[:, r:]).transpose(1, 2, 0)
        least = min(least, float(np.fmin.reduce(
            np.abs(dets, out=dets), axis=None, initial=np.inf)))
        if not least > margin:
            return None, least
    return posT, least


# ((key, vertex shape, vertex bytes), (posT, least)), see _cached_signs
_POINT_SIGNS = (None, None)


def _cached_signs(d: Drawing, tol: ToleranceConfig):
    """_orientation_signs(d, key) with key = max(tol.general_position,
    _DET_FLOOR).  The result is kept on d and reused while the key, d's
    arrays and d.pairing stay those it was computed from.  With no pairing
    and no half-circle it depends on the key and the vertices alone, and
    its last such run is also kept by their content: validating
    sample_points' result reuses the sampler's run, edited points do not.
    """
    global _POINT_SIGNS
    key = max(tol.general_position, _DET_FLOOR)
    arrays = (d.vertices, d.uv, d.midpoints)
    if d._signs is not None:
        kept_key, kept_arrays, kept_pairing, posT, least = d._signs
        if (kept_key == key and kept_pairing == d.pairing
                and all(x is y for x, y in zip(kept_arrays, arrays))):
            return posT, least
    if d.pairing or d.half.any():
        posT, least = _orientation_signs(d, key)
    else:
        content = (key, d.vertices.shape, d.vertices.tobytes())
        if _POINT_SIGNS[0] != content:
            _POINT_SIGNS = None, None       # free the kept bitsets first
            _POINT_SIGNS = content, _orientation_signs(d, key)
        posT, least = _POINT_SIGNS[1]
    d._signs = (key, arrays, dict(d.pairing), posT, least)
    return posT, least


def _sign_counts(d: Drawing, tol: ToleranceConfig) -> np.ndarray | None:
    """Per-edge crossing counts of any drawing from orientation signs, or
    None where the sweep must count instead.

    Points and arcs.  The points are d's n vertices followed by one
    midpoint witness m per half-circle edge.  A half-circle edge from p to
    -p gives the two quarter arcs (p, m) and (m, -p); every other edge is
    one arc.  Arcs are shorter arcs, and two shorter arcs ab and cd with
    frames N = unit(a x b), U = b x N, V = N x a meet in the sweep's
    triple products, with X = N_ab x N_cd,
        X.U_ab = -det(b,c,d)/|c x d|,   X.V_ab = det(a,c,d)/|c x d|,
        X.U_cd =  det(a,b,d)/|a x b|,   X.V_cd = -det(a,b,c)/|a x b|,
    so they cross iff, with s = sign det(a,b,c), det(a,b,d) = -s,
    det(b,c,d) = s and det(a,c,d) = -s.  A half-circle's own frame is
    (p x m, m, m).  Against arc cd the sweep's products are det(p,m,d),
    -det(p,m,c) and, twice, (det(c,d,p) - (p.m) det(c,d,m))/|c x d|;
    against half-circle (q, w) they are det(q,w,p) - (p.m) det(q,w,m) and
    -det(p,m,q) + (q.w) det(p,m,w).

    Masks and guard.  The signs come from _orientation_signs, which masks
    triples by index and returns no signs when some other triple has
    |det| <= max(tol.general_position, _DET_FLOOR) + max |p.m| =: margin;
    then None is returned.

    Why a passing guard means the sweep's counts.  Every product above is
    a guarded determinant, up to positive factors and a p.m term of at
    most max |p.m|; with margin far above the rounding of either
    computation, the sweep decides every sign as the determinants do.  It
    also refuses no pair: each product exceeds general_position >
    tol.sign in size, so mags > tol.sign >= tol.sign * |X|, and |X|, at
    least any product with a unit vector, exceeds tol.sign.  In exact
    arithmetic, with p.m = 0, a half-circle minus m is the union of its
    two open quarter arcs, and the sign rule on them is the sweep's own
    test.  A half-circle meets another curve at most once: the great
    circles share only +-x, and the half-circle holds one of them.  A
    guarded midpoint lies on no other arc either, since det(m,c,d) is
    guarded.  So each crossing falls inside exactly one quarter arc:
    no edge pair is counted twice, and none is lost at m.  The rule's
    extra det(m,c,d) is guarded as well; it can only make the counter
    fall back more often.

    Counting.  The signs are packed into bitsets over d: pos[a, b] and
    neg[a, b] hold the d with det(a,b,d) > 0 and < 0, and arcs[c] the d
    joined to c by an arc.  A crossing arc cd has one end on each side of
    ab's great circle (det(a,b,d) = -s above), so arc ab crosses
    sum_c popcount(neg[a,b] & pos[b,c] & neg[a,c] & arcs[c]) arcs over
    the c with det(a,b,c) > 0.  The mirrored rule over the c with
    det(a,b,c) < 0, pos[a,b] & neg[b,c] & pos[a,c], would find each of
    these arcs once more from its other end d, since det(b,d,c) =
    -det(b,c,d) and det(a,d,c) = -det(a,c,d), and nothing else: its
    count equals this one, so one side suffices.
    Only pos is packed: neg[a, b] = pos[b, a], as det(b,a,d) =
    -det(a,b,d) (see _orientation_signs).  The bitsets are held
    word-major, posT[a, w, c] = word w of pos[a, c] and negT[a, w, c] =
    word w of neg[a, c] = posT[c, w, a], and arcs likewise, so that every
    AND runs along the P columns c rather than along a row's few words.
    The arcs are taken in blocks; where every point pair is an arc, as in
    a point drawing, the AND with arcs[c] is skipped and the pairs a < b
    are taken vertex by vertex, so that rows are slices rather than
    gathers.  The quarter arcs' counts are summed onto their edges.

    A drawing validate_drawing would refuse, e.g. a half-circle whose
    ends are not the exact antipodal couple it joins, an arc joining a
    couple or a repeated point pair, is left to the sweep; every other
    drawing reads its signs through _cached_signs, so a validated drawing
    reuses the ones its validation computed.
    """
    n = d.n
    uv, half = d.uv, d.half
    partner = _partners(d)
    hidx = np.flatnonzero(half)
    u, v = uv[hidx, 0], uv[hidx, 1]
    P = n + len(hidx)
    at = np.arange(n, P)
    arcs = np.concatenate([uv[~half], np.stack([u, at], axis=1),
                           np.stack([at, v], axis=1)])
    owner = np.concatenate([np.flatnonzero(~half), hidx, hidx])
    lo, hi = arcs.min(axis=1), arcs.max(axis=1)
    key = lo * P + hi
    if (not np.array_equal(partner[uv[:, 0]] == uv[:, 1], half)
            or not np.array_equal(d.vertices[v], -d.vertices[u])
            or (lo == hi).any() or (np.diff(np.sort(key)) == 0).any()):
        return None
    posT, _ = _cached_signs(d, tol)
    if posT is None:
        return None
    words = posT.shape[1]
    negT = np.ascontiguousarray(posT.transpose(2, 1, 0))

    joinedT = None
    if len(key) < P * (P - 1) // 2:
        joinedT = np.zeros((P, 64 * words), dtype=bool)
        joinedT[lo, hi] = joinedT[hi, lo] = True
        joinedT = np.ascontiguousarray(_pack(joinedT).T)

    def crossings(a, b):
        """Arcs crossed by the arcs ab, for b a slice or an index array
        and a one index or one per ab."""
        # pos[a, b] = negT[b, :, a] and neg[a, b] = posT[b, :, a]
        above = np.unpackbits(np.ascontiguousarray(negT[b, :, a]).view(
            np.uint8), axis=-1, count=P, bitorder="little")
        # [ab, w, c]: word w of neg[a,b] & pos[b,c] & neg[a,c]
        found = posT[b, :, a][..., None] & posT[b] & negT[a]
        if joinedT is not None:
            found &= joinedT
        counts = np.bitwise_count(found)
        counts *= above[:, None]          # the c with det(a,b,c) > 0
        return counts.sum(axis=(1, 2), dtype=np.int64)

    if joinedT is None:
        # every point pair is an arc: vertex by vertex, rows are slices;
        # gathered per arc, as below, they nearly double the time on K_100
        crossed = np.zeros((P, P), dtype=np.int64)
        for a in range(P - 1):
            crossed[a, a + 1:] = crossings(a, slice(a + 1, P))
        crossed = crossed[lo, hi]
    else:
        crossed = np.zeros(len(lo), dtype=np.int64)
        for s0, s1 in row_blocks(len(lo), P * words):
            crossed[s0:s1] = crossings(lo[s0:s1], hi[s0:s1])
    return np.bincount(owner, weights=crossed,
                       minlength=len(uv)).astype(np.int64)


def count_crossings(d: Drawing, tol: ToleranceConfig | None = None,
                    workers: int = 1) -> CrossingReport:
    """Count all edge crossings of a drawing.

    Every drawing is first counted from the orientation signs of its
    vertices and half-circle midpoints (see :func:`_sign_counts`), in
    O(P^3 * P/64) word operations over its P points; a validated drawing
    reuses the signs its validation computed where ``tol`` gives the same
    guard margin.  The report's pair list is then swept on first read,
    with the same ``workers``.  Where
    some triple falls inside the counter's guard, the drawing is swept
    pair by pair instead, with the sweep's counts, errors and first
    refused pair: adjacent pairs and pairs splitting an antipodal couple
    are excluded structurally (see :func:`_sweep`); every other pair goes
    through the sign predicate, tile by tile, so working memory stays
    bounded.  With ``workers > 1`` the tiles are dealt out over a process
    pool and the merged pairs are sorted, so counts and pair lists are
    independent of scheduling.
    """
    tol = tol or d.tol
    uv = d.uv

    def pairs():
        return _sweep_pairs(_pack_drawing(d), tol.sign, workers)

    per_edge = _sign_counts(d, tol)
    if per_edge is None:
        pairs = pairs()
        per_edge = np.bincount(pairs.ravel(), minlength=len(uv))
    # each edge's crossings count once for each of its two endpoints
    per_vertex = np.bincount(uv.ravel(), weights=np.repeat(per_edge, 2),
                             minlength=d.n).astype(np.int64)
    return CrossingReport(total=int(per_edge.sum()) // 2, per_edge=per_edge,
                          per_vertex=per_vertex, pairs=pairs)


def count_crossings_by_circle_pairs(d: Drawing,
                                    tol: ToleranceConfig | None = None) -> int:
    """Crossing total of a matching-free antipodal drawing by circle pairs.

    Every edge is one arc of a cycle a -> b -> -a -> -b -> a on the great
    circle of two antipodal pairs, and all crossings happen between two
    such circles.  Each circle pair's intersections +-(n1 x n2) are
    attributed to the unique containing arc on both cycles; circles sharing
    a base pair meet on its axis and contribute nothing.  On a validated
    drawing the total cannot differ from the closed form, so this checks
    the attribution argument and that no decision came near the dead zone,
    not the sweep's count; the sign counter is the sweep's cross-check.
    Circle pairs
    are walked in geom.triangle_tiles, a tile at a time; the first refused
    pair raises, its checks in the order same circle, shared-pair axis,
    dead zone on the first cycle, then on the second, more than one arc.
    """
    tol = tol or d.tol
    if d.kind is not DrawingKind.COCKTAIL_PARTY:
        raise ValueError("the circle-pair counter applies to matching-free "
                         "antipodal drawings only")
    couples = np.array(sorted({tuple(sorted(p)) for p in d.pairing.items()}),
                       dtype=np.int64).reshape(-1, 2)
    cycles = np.stack(np.triu_indices(len(couples), 1), axis=1)
    ci, cj = cycles.T
    # ring_u[c] = a, b, -a, -b: cycle c's arcs run from ring_u to ring_v
    ring_u = d.vertices[couples[cycles].transpose(0, 2, 1).reshape(-1, 4)]
    ring_v = np.roll(ring_u, -1, axis=1)
    normals, arc_n = (M / np.linalg.norm(M, axis=-1, keepdims=True) for M in
                      (cross(ring_u[:, 0], ring_u[:, 1]),
                       cross(ring_u, ring_v)))
    # component-major: normals (3, C), wedges (3, 2 wedges, 4 arcs, C)
    normals = np.ascontiguousarray(normals.T)
    wedges = np.ascontiguousarray(np.stack(
        [cross(ring_v, arc_n), cross(arc_n, ring_u)], axis=2).T)

    def attribution(X, W):
        """Least |X . w| over one cycle's wedges W, and how many of its arcs
        hold X and -X strictly: dots(-X) = -dots(X) serves both."""
        D = dot3(X, W)
        return (np.abs(D).min(axis=(0, 1)), (D > 0.0).all(axis=0).sum(axis=0),
                (D < 0.0).all(axis=0).sum(axis=0))

    total = 0
    for r0, r1, c0, c1 in triangle_tiles(len(cycles)):
        r, c = np.ogrid[r0:r1, c0:c1]
        X = cross3(normals[:, r0:r1, None], normals[:, None, c0:c1])
        nx = np.sqrt(dot3(X, X))
        same = (c > r) & (nx <= tol.sign)
        on_i = (ci[r] == ci[c]) | (ci[r] == cj[c])
        shares = on_i | (cj[r] == ci[c]) | (cj[r] == cj[c])
        shared, free = (c > r) & ~same & shares, (c > r) & ~same & ~shares
        at = np.nonzero(shared)
        axis_ends = d.vertices[couples[np.where(on_i, ci[r], cj[r])[at], 0]]
        cos = dot3([x[at] / nx[at] for x in X], axis_ends.T)
        axis = np.zeros_like(shared)
        axis[at] = np.abs(np.abs(cos) - 1.0) > tol.general_position
        mags1, in1, out1 = attribution(X, wedges[..., r0:r1, None])
        mags2, in2, out2 = attribution(X, wedges[..., None, c0:c1])
        refusals = (same, axis, free & (mags1 <= tol.sign * nx),
                    free & (mags2 <= tol.sign * nx),
                    free & ((in1 > 1) | (in2 > 1) | (out1 > 1) | (out2 > 1)))
        bad = np.logical_or.reduce(refusals)
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), bad.shape)
            p, q = r0 + int(at[0]), c0 + int(at[1])
            raise DegenerateConfigurationError(next(m for hit, m in zip(
                refusals,
                (f"cycles {tuple(cycles[p].tolist())} and "
                 f"{tuple(cycles[q].tolist())} span the same great circle",
                 "circles through a shared pair fail to meet on its axis",
                 f"circle-pair attribution hit the dead zone on cycle {p}",
                 f"circle-pair attribution hit the dead zone on cycle {q}",
                 "intersection attributed to more than one arc")) if hit[at]))
        total += (np.count_nonzero(free & (in1 > 0) & (in2 > 0))
                  + np.count_nonzero(free & (out1 > 0) & (out2 > 0)))
    return int(total)


# ---------------------------------------------------------------------------
# verification against the closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaCheck:
    name: str
    predicted: int
    observed: int
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    kind: DrawingKind
    n: int
    crossings: CrossingReport
    checks: tuple[FormulaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.n,
            "total": self.crossings.total,
            "passed": self.passed,
            "checks": [{"name": c.name, "predicted": c.predicted,
                        "observed": c.observed, "passed": c.passed}
                       for c in self.checks],
        }


def verify(d: Drawing, tol: ToleranceConfig | None = None,
           workers: int = 1) -> VerificationReport:
    """Compare the geometric crossing count with the closed form for the
    drawing's kind; all comparisons are exact integer equalities."""
    tol = tol or d.tol
    rep = count_crossings(d, tol, workers=workers)
    n = d.n
    checks = []

    def add(name: str, predicted: int, observed: int):
        checks.append(FormulaCheck(name, int(predicted), int(observed),
                                   int(predicted) == int(observed)))

    if d.kind is DrawingKind.COCKTAIL_PARTY:
        k = n // 2
        add("cocktail_party_total", k * (k - 1) * (k - 2) * (k - 3) // 4,
            rep.total)
    elif d.kind is DrawingKind.PARTIAL_MATCHING:
        add("partial_matching_total",
            partial_matching_target(n, d.matching_size()), rep.total)
    elif d.kind is DrawingKind.COMPLETE:
        add("hill_total", hill_number(n), rep.total)
        if n >= 6 and n % 2 == 0:
            target = per_vertex_target(n)
            worst = max(rep.per_vertex, key=lambda x: abs(x - target))
            add("per_vertex_participation", target, worst)
    elif d.kind is DrawingKind.COMPLETE_MINUS_VERTEX:
        add("vertex_deleted_total", hill_number(n), rep.total)
    elif d.kind is DrawingKind.COMPLETE_PLUS_APEX:
        add("apex_added_total", hill_number(n), rep.total)
    add("per_vertex_sum", 4 * rep.total, int(rep.per_vertex.sum()))
    return VerificationReport(kind=d.kind, n=n, crossings=rep,
                              checks=tuple(checks))
