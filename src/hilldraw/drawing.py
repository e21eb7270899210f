"""Antipodal drawings on the sphere and exact crossing counting.

The central objects are an antipodal point configuration (k base points plus
their antipodes), a choice of matching half-circles, and drawings of the
complete graph and its matching-removed subgraphs whose crossing totals are
verified against closed-form integer counts.  A drawing is arrays only:
its vertices, Drawing.uv (the endpoints of each edge) and
Drawing.midpoints (NaN for an arc, the midpoint witness of a half-circle).

Every drawing is counted from the orientation signs of its vertex triples
and of det(p, m, x) for each half-circle from p through its midpoint
witness m and each vertex x; where one of them is too close to zero, it is
swept over all edge pairs instead, tile by tile, through one batched
predicate, optionally on a process pool.  The sign counter and the sweep
share no arithmetic and cross-check each other.  A third counter walks tiles of
great-circle pairs on matching-free drawings; it cannot disagree with the
closed form there, and checks the attribution argument and that no
decision came near the dead zone.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace

import numpy as np

from .formulas import hill_number, partial_matching_target, per_vertex_target
from .geom import (DEFAULT_TOL, DegenerateConfigurationError,
                   ToleranceConfig, arc_frames, cross, cross3, dot3,
                   frame_signs, is_general_position, loose_midpoints,
                   repair_midpoints, require_arc_rows, require_arcs_apart,
                   require_finite_rows, require_unit, require_unit_rows,
                   row_blocks, tile_rows, triangle_tiles, unit, upper_pairs)


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
        return dict(enumerate([*range(self.k, self.n), *range(self.k)]))


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
    orthonormal rows are kept bit for bit, others are repaired by
    geom.repair_midpoints."""
    mids = np.asarray(midpoints, dtype=float)
    if mids.shape != config.base.shape:
        raise ValueError("need exactly one midpoint per base point")
    fixed = repair_midpoints(config.base, mids, tol)
    # midpoints must not coincide with any configuration vertex
    align = np.abs(fixed @ config.doubled.T)
    if (align >= 1.0 - tol.general_position).any():
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
    and ``midpoints`` (E, 3) are read-only copies of the arrays passed in.
    What validation derives from them, and count_crossings reuses, is
    kept on the drawing (see _kept) and rebuilt once any of them, kind,
    tol or pairing is replaced or edited, so it cannot go stale.

    ``pairing`` maps each vertex to its antipodal partner where one exists;
    it is structural metadata (never inferred geometrically) and drives both
    the graph-kind bookkeeping and the counting skip rules.  Its entries
    are ints (numpy integers are stored as ints; validate_drawing refuses
    any other type).
    """

    vertices: np.ndarray
    kind: DrawingKind
    uv: np.ndarray
    midpoints: np.ndarray
    pairing: dict[int, int] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    tol: ToleranceConfig = DEFAULT_TOL
    # d's kept state (see _kept): no constructor argument, no compare
    _memo: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.vertices = np.array(self.vertices, dtype=float)
        self.uv = np.array(self.uv, dtype=np.int64).reshape(-1, 2)
        self.midpoints = np.array(self.midpoints, dtype=float).reshape(-1, 3)
        # numpy integers as ints, which JSON can write
        self.pairing = {(int(a) if isinstance(a, np.integer) else a):
                        (int(b) if isinstance(b, np.integer) else b)
                        for a, b in self.pairing.items()}
        if len(self.midpoints) != len(self.uv):
            raise ValueError("need one midpoint row per edge")
        for a in (self.vertices, self.uv, self.midpoints):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def half(self) -> np.ndarray:
        """(E,) read-only mask of the half-circle edges: rows not all
        NaN, kept with d's state (see _kept)."""
        return _kept(self, paired=False).half

    def matching_size(self) -> int:
        """Number of matching edges missing from the complete graph."""
        return self.n * (self.n - 1) // 2 - len(self.uv)


def validate_drawing(d: Drawing) -> None:
    """Check structural and geometric invariants; raise on violation.

    Geometric failures (arc endpoints equal or antipodal, a vertex inside
    an edge's curve) raise DegenerateConfigurationError; structural
    mismatches raise ValueError.  The structural checks, of the pairing,
    the edges and the census, are d's verdict (see _verdict), computed
    once and kept on d, where count_crossings and verify read it too.
    Faults are raised in the order unit rows, pairing, edges (the first
    offending edge is reported), arc endpoints, census, vertices off
    curves.

    The orientation signs of the sign counter are computed here, once, and
    kept on d for count_crossings.  Where their guard covers the arc
    endpoint test and the vertex off-curve test (see _off_curve_bound)
    both are skipped, since no arc or vertex can fail them; otherwise they
    run as they are.
    """
    verts = require_unit_rows(d.vertices, d.tol)
    fault, census = _verdict(d)
    if fault:
        raise ValueError(fault)
    clears = _stage_clears(d)
    if not clears:
        arcs = d.uv[~d.half]
        require_arc_rows(verts[arcs[:, 0]], verts[arcs[:, 1]], d.tol)
    if census:
        raise ValueError(census)
    if not clears:
        _check_vertices_off_curves(d)


def _kept(d: Drawing, paired: bool = True) -> SimpleNamespace:
    """d's kept state, rebuilt whenever d's arrays, kind or tol are other
    objects than, or d.pairing differs from, those it was built from.
    This is the only test of whether what d keeps is still current.

    The state is a namespace.  ``source`` holds the arrays, kind and tol
    it was built from, and ``pairing`` a copy of the pairing.  A rebuild
    builds ``half``, the read-only mask behind Drawing.half.  Unless
    ``paired`` is False, the pairing is then read as well, once per
    state: ``partner``, each vertex's antipodal partner or -1 for an
    unpaired one, read-only, and the pairing's entries a -> b as int64
    arrays ``a`` and ``b``, in dict order.  A pairing entry that is no
    pair of ints, or names an index outside [0, n), raises
    validate_drawing's ValueError: the first in dict order, all type
    faults before any range fault.  ``verdict`` (see _verdict) is None
    until the verdict is first asked for, and ``key`` until the
    orientation stage is, which then sets ``signs`` and ``least`` for
    that guard key (see _cached_signs), unless delete_vertex has set
    them from its parent's (see _keep_stage).
    """
    source = (d.vertices, d.uv, d.midpoints, d.kind, d.tol)
    kept = d._memo
    if not (kept and kept.pairing == d.pairing
            and all(map(operator.is_, kept.source, source))):
        nan = np.isnan(d.midpoints)
        half = ~(nan[:, 0] & nan[:, 1] & nan[:, 2])
        half.flags.writeable = False
        kept = d._memo = SimpleNamespace(
            source=source, pairing=dict(d.pairing), half=half, partner=None,
            verdict=None, key=None)
    if not paired or kept.partner is not None:
        return kept
    for a, b in d.pairing.items():
        if not type(a) is type(b) is int:
            raise ValueError(f"pairing entry {a!r} -> {b!r} is not a pair "
                             "of integers")
    a, b = ab = np.array([[*d.pairing], [*d.pairing.values()]], dtype=np.int64)
    # as unsigned, a negative index is at least 2^63, so outside [0, n) too
    if (outside := np.logical_or(*(ab.view(np.uint64) >= d.n))).any():
        i = int(np.argmax(outside))
        raise ValueError(f"pairing entry {a[i]} -> {b[i]} names a vertex "
                         f"outside [0, {d.n})")
    partner = np.full(d.n, -1, dtype=np.int64)
    partner[a] = b
    partner.flags.writeable = False
    kept.a, kept.b, kept.partner = a, b, partner
    return kept


def _verdict(d: Drawing) -> tuple[str | None, str | None]:
    """d's structural verdict (fault, census), computed by
    _check_edge_census when first asked for and kept (see _kept):
    validate_drawing's texts of the first pairing or edge fault and of the
    census fault, each None where it passes.

    Reported, in this order: the first pairing entry a -> b in dict order
    with pairing.get(b) != a or verts[b] != -verts[a]; the first edge with
    invalid or repeated endpoints, a half-circle off a couple or with a
    loose midpoint, or an arc on a couple, each fault in that order; the
    census.  A pairing that _kept refuses raises its ValueError.
    """
    kept = _kept(d)
    if kept.verdict is None:
        kept.verdict = _check_edge_census(d, kept)
    return kept.verdict


def _check_edge_census(d: Drawing, kept: SimpleNamespace):
    """d's structural verdict (fault, census), from d's kept half mask,
    partner array and pairing entries a -> b (see _kept); see _verdict
    for the order of the faults.

    The census is one rule for every kind: every vertex pair that is no
    couple of d.pairing is an edge, as the paper's closed forms assume,
    and d.kind fixes which couples carry half-circles: none for a
    cocktail party, any for a partial matching, all for the other kinds.
    It runs on edges that pass the edge checks, distinct vertex pairs
    each a half-circle iff it is a couple, so it counts: a pair that is
    no couple lacks an edge iff the arcs are fewer than such pairs.
    Repeated edges are found by sorting their keys; np.unique finds the
    first of each only where some key repeats.  Endpoints are clamped
    into [0, n) by np.minimum and np.maximum, and the fault masks joined
    by one chain of |, as numpy's per-call cost, not the edge count,
    dominates on small drawings (np.clip's wrapper and logical_or.reduce
    over a stacked tuple took about twice as long).
    """
    n, uv, verts = d.n, d.uv, d.vertices
    half, partner, a, b = kept.half, kept.partner, kept.a, kept.b
    skew = partner[b] != a
    bad = skew | (verts[b] != -verts[a]).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        return ("pairing map is not symmetric" if skew[i] else
                f"paired vertices {a[i]},{b[i]} are not exact antipodes"), None
    u, v = np.minimum(np.maximum(uv, 0), n - 1).T
    invalid = (uv[:, 0] != u) | (uv[:, 1] != v) | (u == v)
    key = np.minimum(u, v) * n + np.maximum(u, v)
    repeated = np.zeros(len(key), dtype=bool)
    ordered = np.sort(key, kind="stable")   # timsort: keys come in runs
    if (ordered[1:] == ordered[:-1]).any():
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        repeated = first[inverse] != np.arange(len(key))
    paired = partner[u] == v
    loose = half.copy()
    loose[half] = loose_midpoints(verts[u[half]], d.midpoints[half], d.tol)
    if (bad := invalid | repeated | loose | (half ^ paired)).any():
        faults = (invalid, repeated, half & ~paired, loose, ~half & paired)
        i = int(np.argmax(bad))
        e = "({},{})".format(*uv[i].tolist())
        return next(text for hit, text in zip(faults, (
            f"edge {e} has invalid endpoints", f"duplicate edge {e}",
            f"half-circle edge {e} does not join a paired antipodal couple",
            f"half-circle edge {e} midpoint is not a unit vector orthogonal "
            "to its endpoint", f"matching edge {e} must be a half-circle"))
            if hit[i]), None
    halves, got, couples = np.count_nonzero(half), len(uv), len(d.pairing) // 2
    complete = n * (n - 1) // 2
    lacks = got - halves != complete - couples
    if d.kind is DrawingKind.COCKTAIL_PARTY:
        if lacks or halves or 2 * couples != n:
            return None, (f"cocktail-party drawing on {n} vertices must have "
                          f"{complete - n // 2} arc edges and a full pairing")
    elif d.kind is not DrawingKind.PARTIAL_MATCHING:
        if lacks or halves != couples:
            return None, (f"{d.kind.value} drawing must contain all "
                          f"{complete} edges, got {got}")
    elif 2 * couples != n:
        return None, "partial-matching drawing needs a full pairing"
    elif got < complete - n // 2:
        return None, f"edge count {got} matches no valid matching size"
    elif lacks:
        return None, (f"partial-matching drawing on {n} vertices must join "
                      "every vertex pair that is no couple")
    return None, None


def _off_curve_bound(tol: ToleranceConfig) -> float:
    """Least unmasked |det| of _orientation_signs above which no vertex
    can fail _check_vertices_off_curves, and no arc require_arc_rows.
    A lower bound of that least, as a vertex-deleted drawing keeps (see
    delete_vertex), serves too: where it clears the bound, so does the
    least.

    The test refuses vertex w on edge e if |N.w| <= g = tol.general_position
    and w lies in e's wedge.  Every vertex w off e's ends meets e in a
    determinant that _orientation_signs guards, unless w is the partner of
    an end: the vertex triple (a, b, w) for an arc ab, and the table entry
    det(p, m, w) for a half-circle from p through m.
    Such a w = -a is masked, but it can never trip the test: it lies
    outside the arc's wedge, as U.(-a) = -(b x N).a = -N.(a x b) =
    -|a x b| and likewise V.(-b) = -|a x b|, and every arc has
    |a x b| > g, far beyond rounding (require_arc_rows, or see
    below).  A half-circle's partners are its own ends, which the
    test exempts.

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

    Nor can require_arc_rows refuse an arc ab of a drawing with at least
    five vertices, each unit within tol.norm, where ab joins no couple:
    some vertex c is neither a, b nor a partner of either, so (a, b, c) is
    guarded, and the stage's det = fl(x.c), with x = fl(a x b) the cross
    product require_arc_rows takes, has |det| <= |x| |c| (1 + 3u).  So
    np.linalg.norm(x) >= |det| (1 - 6u) / sqrt(s), which exceeds g once
    |det| exceeds the bound.

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


def _stage_clears(d: Drawing) -> bool:
    """Whether d's stage (see _cached_signs) for d.tol clears
    _off_curve_bound, on at least five vertices."""
    signs, least = _cached_signs(d, d.tol)
    return signs is not None and least > _off_curve_bound(d.tol) and d.n >= 5


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


def _cocktail_uv(config: AntipodalConfig) -> np.ndarray:
    """Every non-antipodal pair i < j of the doubled set, as (E, 2)."""
    uv = upper_pairs(config.n)
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
    uv = upper_pairs(len(verts))
    d = Drawing(vertices=verts, kind=DrawingKind.COMPLETE, uv=uv,
                midpoints=np.full((len(uv), 3), np.nan), pairing={},
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
                midpoints=np.full((len(uv), 3), np.nan),
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
    midpoints = np.concatenate([np.full((len(arcs), 3), np.nan),
                                asg.midpoints[chosen]])
    kind = (DrawingKind.COMPLETE if len(chosen) == k else
            DrawingKind.PARTIAL_MATCHING if chosen else
            DrawingKind.COCKTAIL_PARTY)
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

    Where d keeps a stage that passed its guard for the key of ``tol``,
    and d's pairing and edges pass validation, the result's vertex part
    is derived from d's (see _drop_vertex_signs) and its table computed
    anew; otherwise the stage is computed afresh.  The derived least is
    d's, a lower bound of the exact one: removing a vertex only removes
    triples and table entries, and the margin key + max |p.m| of fewer
    half-circles is no larger, so d's least > d's margin >= the result's
    margin, and the guard passes as on the exact least.  Where d's least
    clears _off_curve_bound, the result's exact least does too, for the
    same tol, and validation skips the same tests it would skip on a
    fresh stage; where d's least does not, validation may run them, with
    the same verdict.
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
    rows = (d.uv[:, 0] != v) & (d.uv[:, 1] != v)
    uv = d.uv[rows]
    pairing = {a - (a > v): b - (b > v) for a, b in d.pairing.items()
               if v not in (a, b)}
    prov = dict(d.provenance)
    prov["deleted_vertex"] = v
    out = Drawing(vertices=np.delete(d.vertices, v, axis=0),
                  kind=DrawingKind.COMPLETE_MINUS_VERTEX,
                  uv=uv - (uv > v), midpoints=d.midpoints[rows],
                  pairing=pairing, provenance=prov, tol=tol)
    # d's pairing is read only where its kept stage shows it was
    key, kept = max(tol.general_position, _DET_FLOOR), _kept(d, paired=False)
    if kept.key == key and kept.signs and _verdict(d)[0] is None:
        _keep_stage(out, key, _drop_vertex_signs(
            (kept.signs[0], kept.least), v))
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

    The stage comes through _cached_signs, as any drawing's: its vertex
    part runs on the n + 1 points and replaces the full drawing's in the
    _slot_signs slot.
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
                                            np.full((n, 3), np.nan)]),
                  pairing=dict(base_drawing.pairing), provenance=prov,
                  tol=tol)
    pts = np.concatenate([verts, asg.midpoints])
    if not (_stage_clears(out) and (np.abs(np.einsum(
            "ij,ij->i", pts, pts) - 1.0) <= tol.norm).all()):
        # n^2 dets at once: far less memory than the stage's n^3 / 8 bytes
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
    # the stage masks a base triple only where two of its points are a
    # couple, which a pairing and edges that pass rule out
    config = _double(d.vertices[reps], d.tol, checked=_verdict(d)[0] is None
                     and _stage_clears(d))
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


def _pack_drawing(d: Drawing):
    """Arrays consumed by the vectorized predicates: edge frames N, U, V
    (each (E, 3)), endpoints uv and the partner map.

    The frames are geom.frame_signs' (unit(a x b), b x N, N x a) for an
    arc ab, from geom.arc_frames, and (p x m, m, m) for a half-circle.
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
    return N, U, V, uv, _kept(d).partner


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
        # ~(x > tol): a NaN decision is refused, not read as no crossing
        return (crossing & active, active & ~(nx > sign_tol),
                active & ~(mags > sign_tol * nx))

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
    # imported here, by its one user, so no other path pays for it
    import multiprocessing
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
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


def _vertex_signs(pts: np.ndarray, partner: np.ndarray, key: float):
    """The vertex part of the orientation stage: (posT, least), from the
    vertices pts, the partner array (see _kept) and the guard key alone.

    posT[a, w, c] is word w of the bitset pos[a, c] of the vertices x with
    det(a,c,x) > 0, over the n vertices; it is read-only, as it is kept
    and shared.  least is the smallest |det| of an unmasked triple.

    Masks and guard.  Two kinds of triple are masked by index, never by
    size: a repeated index (det(a,b,a) is about 1e-17, not 0) and a couple
    (x, partner[x]) (det(a,b,-a) likewise; the sweep skips every edge pair
    that splits a couple).  A masked determinant has neither sign, so a
    rule that needs it finds nothing.  If any other triple has |det| <=
    key, posT is None and least is the smallest |det| of the blocks up to
    the refusing one, at most key; otherwise least is that of all the
    triples.  A vertex that is not finite gives no posT either (least is
    NaN): masked determinants are NaN here, so determinants made NaN by
    such a point would pass for masked ones.  In each block of
    determinants the repeated indices c = a, c = b and b = a are three
    strided views, each written with NaN in one assignment; the couples
    are written by index, and only where some vertex is paired.

    The n^2 cross products a x b are computed once, and rows a in [a0, a1)
    are dotted with every vertex only for b >= a0: geom.cross takes each
    component as a difference of two rounded products, a1 b2 - a2 b1 and
    so on, which swapping a and b swaps, so cross(b, a) = -cross(a, b)
    exactly and det(b,a,c) = -det(a,b,c) bit for bit; with masks
    symmetric in a triple, least and the guard are those of all n^3
    triples.  The blocks pack pos[a, b] only for b >= a0; pos[b, a] for
    b > a is then derived from the packed words, with no second
    comparison: once the guard has passed, every unmasked det exceeds
    key >= _DET_FLOOR in size and is finite, so none is 0, and
    det(b,a,x) > 0 iff det(a,b,x) is not.  So pos[b, a] is pos[a, b]
    with the bits of the unmasked x flipped, which are every vertex but
    a, b and their partners, and none where (a, b) is a couple (keep
    clears a vertex's own bit and its partner's); inside a block this
    rewrites the bits the block packed, which are the same.
    A point set in one block (n <= 32 under the default tile) packs all
    of posT in its block and derives none.
    """
    P = len(pts)
    if not np.isfinite(pts).all():
        return None, np.nan
    least, words = np.inf, (P + 63) // 64
    posT = np.empty((P, words, P), dtype=np.uint64)
    # the antipodal couples (x, partner[x]), sorted by x: a triple that
    # holds both is masked, as is one with a repeated index
    xs = (partner >= 0).nonzero()[0]
    ys, xl = partner[xs], xs.tolist()       # xl for bisect's block bounds
    pair_cross = cross(pts[:, None], pts)
    # the rows [a0, a1) of a block against the columns b >= a0, in one
    # tile (geom.tile_rows); fresh dets arrays of varying size cost more
    blocks, a0 = [], 0
    while a0 < P:
        blocks.append((a0, min(P, a0 + tile_rows((P - a0) * P))))
        a0 = blocks[-1][1]
    dets_buf = np.empty(P * max(((a1 - a0) * (P - a0) for a0, a1 in blocks),
                                default=0))
    for a0, a1 in blocks:
        r = a1 - a0
        # dets[r, b - a0, c] = det(a0 + r, b, c)
        dets = dets_buf[:r * (P - a0) * P].reshape(r, -1, P)
        np.matmul(pair_cross[a0:a1, a0:].reshape(-1, 3), pts.T,
                  out=dets.reshape(-1, P))
        # a masked det is NaN: it has neither sign, and fmin skips it; a
        # repeated index c = a, c = b or b = a is a strided view of dets
        # (einsum's diagonal view for c = a), and a couple (a, c), (b, c)
        # or (a, b) is written by index
        np.einsum("iji->ij", dets[:, :, a0:a1])[...] = np.nan
        dets.reshape(r, -1)[:, a0::P + 1] = np.nan
        dets.reshape(-1, P)[::P - a0 + 1] = np.nan
        if len(xs):
            lo, hi = bisect_left(xl, a0), bisect_left(xl, a1)
            rows, cols = xs[lo:hi] - a0, ys[lo:hi]
            dets[rows, :, cols] = np.nan
            dets[:, xs[lo:] - a0, ys[lo:]] = np.nan
            dets[rows[cols >= a0], cols[cols >= a0] - a0] = np.nan
        bits = np.zeros((r, P - a0, 64 * words), dtype=bool)
        np.greater(dets, 0.0, out=bits[..., :P])
        posT[a0:a1, :, a0:] = _pack(bits).transpose(0, 2, 1)
        least = min(least, float(np.fmin.reduce(
            np.abs(dets, out=dets), axis=None, initial=np.inf)))
        if not least > key:
            return None, least
    if len(blocks) > 1:
        # pos[b, a] for b > a: pos[a, b] with the bits flipped that no
        # mask of (a, b, x) holds, where keep[y] drops y and its partner,
        # and none for a couple (a, b)
        bits = np.zeros((P, 64 * words), dtype=bool)
        bits[:, :P] = ~np.eye(P, dtype=bool)
        bits[xs, ys] = False
        keep = _pack(bits)
        mirror = np.bitwise_and(keep[:, :, None], keep.T,
                                out=np.empty_like(posT))
        mirror ^= posT.transpose(2, 1, 0)
        mirror[ys, :, xs] = 0
        np.copyto(posT, mirror, where=np.tri(P, k=-1, dtype=bool)[:, None])
    posT.flags.writeable = False
    return posT, least


def _drop_vertex_signs(vertex, v: int):
    """The vertex part (posT, least) of a point set with its vertex v
    deleted, from the point set's own, vertex, in O(n^2 * words): row and
    column v of posT dropped, and bit v deleted from every word, the
    higher bits shifted down by one.  Deletion leaves each other triple's
    determinant and, as the pairing loses only the couple of v, its mask
    as they were, so these are the bits a fresh run gives.

    least is kept as a lower bound of the new least: the triples left are
    some of the old ones.  A guard it passes passes on the exact least
    too, and a clearance of _off_curve_bound holds for it (see
    delete_vertex).
    """
    posT, least = vertex
    n, words = len(posT), posT.shape[1]
    keep = (np.arange(n) != v).nonzero()[0]
    out = posT[keep][:, :, keep]
    w, b = divmod(v, 64)
    low = np.uint64((1 << b) - 1)
    # from word w on: each word shifted down by one, its bit 63 taken
    # from bit 0 of the next; word w keeps its bits below b
    tail = out[:, w:] >> np.uint64(1)
    tail[:, :-1] |= out[:, w + 1:] << np.uint64(63)
    tail[:, 0] = (out[:, w] & low) | (tail[:, 0] & ~low)
    out[:, w:] = tail
    # n - 1 vertices may need one word less
    out = np.ascontiguousarray(out[:, :(n + 62) // 64])
    out.flags.writeable = False
    return out, least


def _orientation_signs(d: Drawing, key: float, vertex=None):
    """The orientation stage of the sign counter: (signs, least).

    signs is (posT, sides).  posT is d's vertex part (see _vertex_signs),
    which ``vertex`` gives as (posT, least) where it is known, and which
    is computed here otherwise.  sides is the (k, n) int8 table of sign
    det(p, m, x) over the k half-circle edges, in edge order, each from p
    through its midpoint witness m, and the vertices x, read-only too.
    The table takes det(p, m, x) as cross(p, m).x, the sweep's own
    half-circle normal dotted with x; its entries x = +-p, a half-circle's
    own ends, are masked and read 0.

    least is the smaller of the vertex part's least and the smallest
    unmasked |det| of the table.  If it is at most margin = key +
    max |p.m|, signs is None; a vertex or midpoint that is not finite
    gives no signs either, and least is then NaN.  The vertex part
    refuses only at key, the least margin a drawing can have, and
    otherwise has the least of all its triples, so one vertex part serves
    every drawing on the same vertices and pairing, whatever its
    half-circles (see _cached_signs).  Where ``vertex`` gives a lower
    bound of its least (see _drop_vertex_signs), least is one too.
    """
    pts, half = d.vertices, d.half
    posT, least = vertex or _vertex_signs(pts, _kept(d).partner, key)
    huv, mids = d.uv[half], d.midpoints[half]
    if np.isnan(least) or not np.isfinite(mids).all():
        return None, np.nan
    sides = np.empty((len(huv), len(pts)), dtype=np.int8)
    margin = key
    if len(huv):
        ends = pts[huv[:, 0]]
        margin += float(np.abs(np.einsum("ij,ij->i", ends, mids)).max())
        table = cross(ends, mids) @ pts.T
        table[np.arange(len(huv))[:, None], huv] = np.nan
        np.subtract(table > 0.0, table < 0.0, out=sides, dtype=np.int8)
        least = min(least, float(np.fmin.reduce(
            np.abs(table, out=table), axis=None, initial=np.inf)))
    if not least > margin:
        return None, least
    sides.flags.writeable = False
    return (posT, sides), least


# ((key, vertex shape, vertex bytes, partner bytes), (posT, least)): the
# last vertex part computed afresh, see _slot_signs
_VERTEX_SIGNS = (None, None)


def _slot_signs(pts: np.ndarray, partner: np.ndarray, key: float):
    """_vertex_signs(pts, partner, key), read from the one slot where it
    holds that content, else computed and kept there instead of the last:
    every drawing on the same vertices and pairing shares it.

    An apex drawing's part, on one point more, replaces its full
    drawing's.  A Hill generate, verify and mutate cycle reads the full
    drawing's no more after its apex; add_random_apex computes it anew
    only where its first apex is refused and extend_to_complete then
    validates the full drawing."""
    global _VERTEX_SIGNS
    content = (key, pts.shape, pts.tobytes(), partner.tobytes())
    if _VERTEX_SIGNS[0] != content:
        _VERTEX_SIGNS = None, None          # free the kept bitsets first
        _VERTEX_SIGNS = content, _vertex_signs(pts, partner, key)
    return _VERTEX_SIGNS[1]


def _keep_stage(d: Drawing, key: float, vertex) -> None:
    """Keep _orientation_signs(d, key, vertex) on d for key (see _kept)."""
    kept = _kept(d)
    kept.signs, kept.least = _orientation_signs(d, key, vertex)
    kept.key = key


def _cached_signs(d: Drawing, tol: ToleranceConfig):
    """_orientation_signs(d, key) with key = max(tol.general_position,
    _DET_FLOOR), computed when first asked for and kept (see _kept) with
    its key; another key runs it anew and keeps that run instead.

    Its vertex part depends on the key, the vertices and the partner array
    alone, and comes from _slot_signs, checked by content before any other
    work: a cocktail party and the partial matchings on its points, a
    parsed document and the drawing it was written from, and a sampled
    draw and the drawing on its points compute it once; edited points or
    another pairing compute it anew.  Only the table is each drawing's
    own.  delete_vertex keeps on its drawing a stage derived from its
    parent's, which is read here as any other.
    """
    key = max(tol.general_position, _DET_FLOOR)
    kept = _kept(d)
    if kept.key != key:
        _keep_stage(d, key, _slot_signs(d.vertices, kept.partner, key))
    return kept.signs, kept.least


def _sign_counts(d: Drawing, tol: ToleranceConfig) -> np.ndarray | None:
    """Per-edge crossing counts of any drawing from orientation signs, or
    None where the sweep must count instead.

    The sweep's predicate.  An arc ab, a shorter arc, has the frame
    N = unit(a x b), U = b x N, V = N x a, and a half-circle from p
    through its midpoint witness m has (p x m, m, m).  Two curves cross
    iff the four products X.U and X.V of both frames, with X = N x N',
    share one strict sign.  For arcs ab and cd they are
        X.U_ab = -det(b,c,d)/|c x d|,   X.V_ab = det(a,c,d)/|c x d|,
        X.U_cd =  det(a,b,d)/|a x b|,   X.V_cd = -det(a,b,c)/|a x b|,
    so ab and cd cross iff, with s = sign det(a,b,c), det(a,b,d) = -s,
    det(b,c,d) = s and det(a,c,d) = -s.  Against arc cd, half-circle
    (p, m) gives det(p,m,d) and -det(p,m,c), up to positive factors, and,
    twice, (det(c,d,p) - (p.m) det(c,d,m))/|c x d|; against half-circle
    (q, w) it gives, twice each, det(q,w,p) - (p.m) det(q,w,m) and
    -det(p,m,q) + (q.w) det(p,m,w).  So, with the p.m terms dropped, arc
    cd crosses (p, m) iff det(p,m,d), -det(p,m,c) and det(c,d,p) share
    one strict sign, and (p, m) crosses (q, w) iff det(q,w,p) and
    -det(p,m,q) do.

    Masks and guard.  The signs come from _orientation_signs: the vertex
    triples as bitsets, and det(p,m,x) as the table sides.  It masks
    triples and the entries x = +-p by index, and returns no signs when
    some other one has |det| <= max(tol.general_position, _DET_FLOOR) +
    max |p.m| =: margin; then None is returned.

    Why a passing guard means the sweep's counts.  The sweep skips every
    pair that shares a vertex or splits an antipodal couple, and every
    other pair has only unmasked determinants in the rules above: a
    vertex triple of three distinct vertices, no two a couple, or a table
    entry at x != +-p.  Each of the sweep's products is such a guarded
    determinant, up to positive factors and a p.m term of at most
    max |p.m|; with margin far above the rounding of either computation,
    the sweep decides every sign as the determinants do.  It also refuses
    no pair: each product exceeds general_position > tol.sign in size, so
    mags > tol.sign >= tol.sign * |X|, and |X|, at least any product with
    a unit vector, exceeds tol.sign.  The determinants det(c,d,m) and
    det(q,w,m) enter only through the p.m terms, and need no guard.

    Counting arcs against arcs.  The signs are packed into bitsets over
    d's n vertices: pos[a, b] and neg[a, b] hold the d with det(a,b,d) > 0
    and < 0.  Every vertex pair that is no arc must be a couple, whose
    triples are masked, so no bitset of the arcs is needed: a pair cd
    with the signs of a crossing is an arc.  A crossing arc cd has one end
    on each side of ab's great circle (det(a,b,d) = -s above), so arc ab
    crosses sum_c popcount(neg[a,b] & pos[b,c] & neg[a,c]) arcs over the
    c with det(a,b,c) > 0.  The mirrored rule over the c with det(a,b,c)
    < 0, pos[a,b] & neg[b,c] & pos[a,c], would find each of these arcs
    once more from its other end d, since det(b,d,c) = -det(b,c,d) and
    det(a,d,c) = -det(a,c,d), and nothing else: its count equals this
    one, so one side suffices.  It is this rule with a and b swapped, so
    an arc is read in its row's order, tail uv[e, 0] to head uv[e, 1],
    with no row sort: a row stored either way round counts alike.
    Only pos is packed: neg[a, b] = pos[b, a], as det(b,a,d) =
    -det(a,b,d) (see _vertex_signs).  The bitsets are held
    word-major, posT[a, w, c] = word w of pos[a, c] and negT[a, w, c] =
    word w of neg[a, c] = posT[c, w, a], so that every AND runs along the
    n columns c rather than along a row's few words.  The arcs are taken
    in blocks, and each block's ANDs are written into the copy of posT[b]
    that gathering by index makes, so a block needs one temporary of its
    size, not three.  neg[a, b] is gathered once per block, and the side
    mask, the c with det(a,b,c) > 0, is its complement: under the guard
    no unmasked det is 0, and at a masked c (a, b or a partner of either)
    pos[b, c] or neg[a, c] is masked and the AND is empty, so the mask's
    bit there does not matter; the words' padding bits past n are not
    unpacked.  A block's popcounts are summed in uint32: an arc crosses
    at most C(n - 2, 2) arcs, which fits for n <= 92 684.

    Counting half-circles.  The table's signs are packed as bitsets too,
    over the ends p of the half-circles and over the vertices, so the
    arc-half rule is one AND per arc with bit p of pos[c, d], det(c,d,p)
    > 0, and per half-circle one AND per vertex; the half-half rule reads
    the table at the k ends.  An arc that touches +-p meets a masked
    entry, which has neither sign, and so does a half-circle pair on one
    couple: the sweep skips both.

    Eligibility.  The counter tests no structure of its own: it reads
    the verdict validate_drawing raises from (_verdict), which a
    validated drawing keeps, and counts only where its pairing and edge
    checks pass, the guard passes and its census holds, in
    validate_drawing's order.  Then every vertex pair but the couples is
    an edge, each half-circle joins an exact antipodal couple and no arc
    does, as the rules above assume.  Any drawing validate_drawing would
    refuse for its pairing, edges or census is left to the sweep.  The
    signs come through _cached_signs, so a validated drawing reuses the
    ones its validation computed.
    """
    # in validate_drawing's order: the stage before the census
    fault, census = _verdict(d)
    if fault or (signs := _cached_signs(d, tol)[0]) is None or census:
        return None
    n, (u, v), half = d.n, d.uv.T, d.half
    tail, head, ends = u[~half], v[~half], u[half]
    (posT, sides), words = signs, signs[0].shape[1]
    negT = np.ascontiguousarray(posT.transpose(2, 1, 0))
    per_edge = np.zeros(len(half), dtype=np.int64)
    crossed = np.zeros(len(tail), dtype=np.int64)
    for s0, s1 in row_blocks(len(tail), n * words):
        a, b = tail[s0:s1], head[s0:s1]
        # neg[a, b] = posT[b, :, a]; its complement is pos[a, b] but at
        # the masked c, where found is empty
        nab = posT[b, :, a]
        above = np.unpackbits((~nab).view(np.uint8), axis=-1, count=n,
                              bitorder="little")
        # [ab, w, c]: word w of neg[a,b] & pos[b,c] & neg[a,c]
        found = posT[b]
        found &= negT[a]
        found &= nab[..., None]
        counts = np.bitwise_count(found)
        counts *= above[:, None]          # the c with det(a,b,c) > 0
        # at most C(n - 2, 2) per arc, within uint32 for n <= 92 684
        crossed[s0:s1] = counts.reshape(len(a), -1).sum(1, dtype=np.uint32)
    if len(ends):
        # below[x] and over[x] hold the ends p of the half-circles with
        # det(p,m,x) < 0 and > 0, and the first k rows of over_h the x
        # with det(p,m,x) > 0 for each half-circle, all packed at once
        bits = np.zeros((3, n, 64 * words), dtype=bool)
        bits[0][:, ends], bits[1][:, ends] = (sides < 0).T, (sides > 0).T
        bits[2][:len(ends), :n] = sides > 0
        below, over, over_h = _pack(bits)
        # arc cd crosses (p, m) iff c is below, d over and det(c,d,p) > 0,
        # or the same with c and d swapped
        found = (below[tail] & over[head] & posT[tail, :, head]
                 | over[tail] & below[head] & posT[head, :, tail])
        crossed += np.bitwise_count(found).sum(axis=1, dtype=np.int64)
        # so (p, m) crosses the arcs xy with x below, y over and det(p,x,y)
        # > 0: from each x below, the y in over_h & pos[p, x], as a pair xy
        # that is no arc is a couple, whose triples are masked; and (q, w)
        # iff det(q,w,p) and det(p,m,q) have opposite signs
        found = np.bitwise_count(posT[ends] & over_h[:len(ends), :, None]
                                 ).sum(axis=1, dtype=np.int64)
        at = sides[:, ends]
        per_edge[half] = (((sides < 0) * found).sum(axis=1)
                          + (at * at.T < 0).sum(axis=1))
    per_edge[~half] = crossed
    return per_edge


def count_crossings(d: Drawing, tol: ToleranceConfig | None = None,
                    workers: int = 1) -> CrossingReport:
    """Count all edge crossings of a drawing.

    Every drawing is first counted from the orientation signs of its
    vertex triples and of a k x n table of determinants for its k
    half-circles (see :func:`_sign_counts`), in O(n^3 * n/64) word
    operations over its n vertices and O(E * n/64) for the half-circles;
    a validated drawing reuses the signs its validation computed where
    ``tol`` gives the same guard margin.  The report's pair list is then
    swept on first read, with the same ``workers``.  Where some triple or
    table entry falls inside the counter's guard, the drawing is swept
    pair by pair instead, with the sweep's counts, errors and first
    refused pair: adjacent pairs and pairs splitting an antipodal couple
    are excluded structurally (see :func:`_sweep`); every other pair goes
    through the sign predicate, tile by tile, so working memory stays
    bounded.  With ``workers > 1`` the tiles are dealt out over a process
    pool and the merged pairs are sorted, so counts and pair lists are
    independent of scheduling.  Any drawing validate_drawing would refuse
    for its pairing, edges or census is swept too (see _verdict), except
    where the sweep cannot index its vertices or frame an edge: a pairing
    entry that is no pair of ints in [0, n), as no partner array can be
    formed, an edge endpoint outside [0, n) and an arc that joins a couple
    of d.pairing, whose ends are exact antipodes with no great circle
    through both, raise validate_drawing's ValueError, before any frame
    is built; then any other arc whose ends are equal or antipodal within
    d.tol raises validate_drawing's DegenerateConfigurationError (see
    geom.require_arcs_apart).  Nor is a
    drawing swept whose vertex or half-circle midpoint is not finite: the
    first such vertex, then midpoint, raises a ValueError that names it.
    """
    tol = tol or d.tol

    def pairs():
        return _sweep_pairs(_pack_drawing(d), tol.sign, workers)

    per_edge = _sign_counts(d, tol)
    if per_edge is None:
        require_finite_rows(d.vertices, "vertex")
        require_finite_rows(np.where(d.half[:, None], d.midpoints, 0.0),
                            "midpoint of edge")
        arcs = d.uv[~d.half]
        if not ((d.uv >= 0) & (d.uv < d.n)).all() or (
                _kept(d).partner[arcs[:, 0]] == arcs[:, 1]).any():
            raise ValueError(_verdict(d)[0])
        require_arcs_apart(d.vertices[arcs[:, 0]], d.vertices[arcs[:, 1]],
                           d.tol)
        pairs = pairs()
        per_edge = np.bincount(pairs.ravel(), minlength=len(d.uv))
    # each edge's crossings count once for each of its two endpoints
    per_vertex = np.bincount(d.uv.ravel(), weights=np.repeat(per_edge, 2),
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
    couples = np.array(sorted({(a, b) if a < b else (b, a)
                               for a, b in d.pairing.items()}),
                       dtype=np.int64).reshape(-1, 2)
    cycles = upper_pairs(len(couples))
    ci, cj = cycles.T
    # component-major, (3, 4 arcs, C): ring_u[:, :, c] = a, b, -a, -b, and
    # cycle c's arcs run from ring_u to ring_v
    ring_u = d.vertices[couples[cycles].transpose(0, 2, 1).reshape(-1, 4)].T
    ring_v = ring_u[:, [1, 2, 3, 0]]
    arc_n = np.array(cross3(ring_u, ring_v))
    # (x0^2 + x1^2) + x2^2, the sum np.linalg.norm takes along a 3-wide axis
    arc_n /= np.sqrt(dot3(arc_n, arc_n))
    # normals (3, C), the first arc's, as ring_v[:, 0] = ring_u[:, 1];
    # wedges (3, 2 wedges, 4 arcs, C)
    normals = arc_n[:, 0]
    wedges = np.stack([cross3(ring_v, arc_n), cross3(arc_n, ring_u)], axis=1)

    def attribution(X, W):
        """Least |X . w| over one cycle's wedges W, and how many of its arcs
        hold X and -X strictly (as uint8): dots(-X) = -dots(X) serves
        both."""
        D = dot3(X, W)
        held = [np.add.reduce(w[0] & w[1], axis=0, dtype=np.uint8)
                for w in (D > 0.0, D < 0.0)]
        return np.abs(D, out=D).min(axis=(0, 1)), *held

    total = 0
    for r0, r1, c0, c1 in triangle_tiles(len(cycles)):
        upper = np.arange(c0, c1) > np.arange(r0, r1)[:, None]
        ir, jr, ic, jc = ci[r0:r1, None], cj[r0:r1, None], ci[c0:c1], cj[c0:c1]
        X = cross3(normals[:, r0:r1, None], normals[:, None, c0:c1])
        nx = np.sqrt(dot3(X, X))
        same = upper & (nx <= tol.sign)
        on_i = (ir == ic) | (ir == jc)
        shares = on_i | (jr == ic) | (jr == jc)
        apart = upper & ~same
        shared, free = apart & shares, apart & ~shares
        at = shared.nonzero()
        axis_ends = d.vertices[couples[np.where(on_i, ir, jr)[at], 0]]
        cos = dot3([x[at] / nx[at] for x in X], axis_ends.T)
        axis = np.zeros_like(shared)
        axis[at] = np.abs(np.abs(cos) - 1.0) > tol.general_position
        mags1, in1, out1 = attribution(X, wedges[..., r0:r1, None])
        mags2, in2, out2 = attribution(X, wedges[..., None, c0:c1])
        dead1, dead2 = mags1 <= tol.sign * nx, mags2 <= tol.sign * nx
        multi = (in1 > 1) | (in2 > 1) | (out1 > 1) | (out2 > 1)
        if (bad := same | axis | free & (dead1 | dead2 | multi)).any():
            refusals = (same, axis, free & dead1, free & dead2, free & multi)
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
    drawing's kind; all comparisons are exact integer equalities.  The
    closed forms hold for the drawings validate_drawing accepts.  A
    drawing it refuses for its pairing, edges or census raises its
    ValueError here, from d's kept verdict (see _verdict), which a
    validated drawing already holds; the geometric checks are not run
    again."""
    tol = tol or d.tol
    fault, census = _verdict(d)
    if fault or census:
        raise ValueError(fault or census)
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
