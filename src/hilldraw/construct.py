"""Strength-0 constructions: seed arrangements of pairwise disjoint
half-circles and their neighborhood blowups.

An arrangement is two read-only (k, 3) arrays, points and midpoints.
The blowup replaces one half-circle C (endpoints p, -p, midpoint m) by
several disjoint half-circles inside its eps-neighborhood.  Children are
built by the lift-and-tangent rule: each child endpoint is lifted off C's
great-circle plane by a fixed angle toward the circle's pole n = p x m
(side controlled by the below/above flag), fanned by small azimuths zeta_i
within the lift plane, and given the exact tangent midpoint

    p_i = cos(rho) p + sin(rho) (cos(zeta_i) * side * n + sin(zeta_i) m)
    m_i = cos(zeta_i) m - side * sin(zeta_i) n

With equal lifts, any two children's great circles meet near the endpoint
cluster in a direction that is forward along one child and backward along
the other, so the open halves never share a point.  Correctness is not
assumed: every construction is validated (pairwise disjointness, general
position, eps containment) and retried with geometrically shrunk offsets on
failure.  Each parent's children are emitted and measured in bulk, but
parents are taken in turn: an attempt that fails at one draws no jitter
for the parents after it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .drawing import (AntipodalConfig, HalfCircleAssignment, _double,
                      double, half_circle_crossings, make_assignment,
                      strength)
from .geom import (DEFAULT_TOL, DegenerateConfigurationError, HalfCircle,
                   ToleranceConfig, cross, cross3, dot3, is_general_position,
                   repair_midpoints, require_unit_rows, rotate, unit)


class ConstructionError(Exception):
    """A construction failed validation after all retries."""


class PerturbationError(ConstructionError):
    """A perturbed configuration no longer validates."""


@dataclass(frozen=True)
class HalfCircleArrangement:
    """Pairwise disjoint half-circles with generic endpoints: half-circle i
    runs from points[i] through the unit midpoint witness midpoints[i] to
    -points[i].  Both (k, 3) arrays are read-only copies."""

    points: np.ndarray
    midpoints: np.ndarray

    def __post_init__(self):
        for name in ("points", "midpoints"):
            a = np.array(getattr(self, name), dtype=float).reshape(-1, 3)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.points)


def validate_arrangement(points, midpoints,
                         tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Raise ConstructionError unless the half-circles from points[i]
    through midpoints[i], both (k, 3) arrays, are pairwise disjoint and
    their endpoints are a general-position point set."""
    try:
        crossing = half_circle_crossings(points, midpoints, tol)
    except DegenerateConfigurationError as exc:
        raise ConstructionError(f"half-circles are degenerate: {exc}"
                                ) from exc
    if len(crossing):
        i, j = crossing[0]
        raise ConstructionError(f"half-circles {i} and {j} cross")
    if len(points) >= 3 and not is_general_position(points, tol):
        raise ConstructionError("arrangement endpoints are not in general "
                                "position")


def _seed(halves, tol: ToleranceConfig) -> HalfCircleArrangement:
    arr = HalfCircleArrangement(points=[h.p for h in halves],
                                midpoints=[h.m for h in halves])
    validate_arrangement(arr.points, arr.midpoints, tol)
    return arr


# ---------------------------------------------------------------------------
# seed arrangements, built once per tolerance set: they are immutable
# ---------------------------------------------------------------------------

@functools.cache
def seed_single(tol: ToleranceConfig = DEFAULT_TOL) -> HalfCircleArrangement:
    """One equatorial half-circle: endpoints (+-1, 0, 0), midpoint (0, 1, 0)."""
    return _seed([HalfCircle(np.array([1.0, 0.0, 0.0]),
                             np.array([0.0, 1.0, 0.0]), tol)], tol)


@functools.cache
def seed_two(tol: ToleranceConfig = DEFAULT_TOL) -> HalfCircleArrangement:
    """Half of the equator plus a pole-to-pole half on the far meridian.

    Both are tilted by a small fixed rotation so the endpoints sit in
    generic position instead of on coordinate axes.
    """
    tilts = (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.31, 0.52, 0.80), 0.03),
             ((0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (0.72, -0.21, 0.41), 0.05))
    return _seed([HalfCircle(rotate(p, axis, angle), rotate(m, axis, angle),
                             tol) for p, m, axis, angle in tilts], tol)


@functools.cache
def seed_four(tol: ToleranceConfig = DEFAULT_TOL) -> HalfCircleArrangement:
    """Four spread-out points whose half-circles run clockwise about the
    vertical axis: with midpoint m = (p x z)/|p x z| any two of these halves
    miss each other, one passing in front of the other near each pole."""
    zhat = np.array([0.0, 0.0, 1.0])
    halves = []
    for i, az in enumerate((0.3, 1.9, 3.6, 5.1)):
        lat = 0.7 + 0.04 * i
        p = np.array([math.sin(lat) * math.cos(az),
                      math.sin(lat) * math.sin(az),
                      math.cos(lat)])
        halves.append(HalfCircle(p, unit(cross(p, zhat)), tol))
    return _seed(halves, tol)


SEEDS = {"single": seed_single, "two": seed_two, "four": seed_four}


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupPlan:
    """How to replace each half-circle of an arrangement by children.

    multiplicities: child count per arrangement half-circle.
    eps: angular radius of each parent's neighborhood.
    sides: "below"/"above" per half-circle (default all "below").
    lift0, spread0: initial lift angle and total azimuth fan; default to
        0.6 * eps and 0.8 * eps.
    shrink: geometric factor applied to the offsets after a failed
        validation; max_retries bounds the attempts.
    jitter: relative symmetry-breaking noise on the azimuth fan.
    """

    multiplicities: tuple[int, ...]
    eps: float = 0.2
    sides: tuple[str, ...] | None = None
    lift0: float | None = None
    spread0: float | None = None
    shrink: float = 0.5
    max_retries: int = 12
    jitter: float = 0.15

    def __post_init__(self):
        if not self.multiplicities or any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive integers")
        if not 0.0 < self.eps <= math.pi / 2:
            raise ValueError("eps must lie in (0, pi/2]")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink factor must lie in (0, 1)")
        for name in ("lift0", "spread0"):
            x = getattr(self, name)
            if x is not None and not 0.0 < x < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.max_retries < 0 or not math.isfinite(self.jitter):
            raise ValueError("max_retries must be non-negative and jitter "
                             "finite")
        if self.sides is not None:
            if len(self.sides) != len(self.multiplicities):
                raise ValueError("need one side flag per half-circle")
            for s in self.sides:
                if s not in ("below", "above"):
                    raise ValueError(f"unknown side flag {s!r}")

    def side_signs(self) -> tuple[int, ...]:
        sides = self.sides or ("below",) * len(self.multiplicities)
        return tuple(-1 if s == "below" else +1 for s in sides)


def _children(p, m, mult: int, side: int, lift: float, spread: float,
              jitter: float, rng, tol: ToleranceConfig
              ) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints and midpoints, each (mult, 3), of the children of the
    half-circle from p through m.  Row i takes the scalar rule's own
    operations (math.cos and math.sin of zeta_i, then the same products
    and sums, and HalfCircle's fix of a loose midpoint): bit for bit the
    child a child-by-child loop builds."""
    n = np.array(cross3(p, m))
    spacing = spread / max(mult - 1, 1)
    # deterministic-seeded jitter keeps the fan off exact symmetries
    zetas = [(spread * (i / (mult - 1) - 0.5) if mult > 1 else 0.0)
             + spacing * (0.1 + jitter * u)
             for i, u in enumerate(rng.uniform(-1.0, 1.0, size=mult).tolist())]
    cos = np.array([math.cos(z) for z in zetas])[:, None]
    sin = np.array([math.sin(z) for z in zetas])[:, None]
    w = cos * (side * n) + sin * m
    points = require_unit_rows(math.cos(lift) * p + math.sin(lift) * w, tol)
    return points, repair_midpoints(points, cos * m - (side * sin) * n, tol)


def _distances(p, m, X) -> np.ndarray:
    """Angular distance from each row of X to the closed half-circle from
    p through m: to its great circle where the foot of x lies on the
    half, else to the nearer endpoint."""
    XT, n = X.T, cross3(p, m)
    s = np.clip(dot3(XT, n), -1.0, 1.0)
    c = cross3(XT, p)
    ends = np.arctan2(np.sqrt(dot3(c, c)), np.abs(dot3(XT, p)))
    # the foot x - s n of x on the great circle, dotted with m
    on_half = dot3(XT, m) - s * dot3(n, m) >= 0.0
    return np.where(on_half, np.abs(np.arcsin(s)), ends)


def _blowup(arr: HalfCircleArrangement, plan: BlowupPlan, rng,
            tol: ToleranceConfig) -> HalfCircleArrangement:
    """The children of every half-circle of arr, emitted and validated;
    retries with shrunk offsets on failure."""
    if len(plan.multiplicities) != len(arr):
        raise ValueError(f"plan lists {len(plan.multiplicities)} "
                         f"multiplicities for {len(arr)} half-circles")
    signs = plan.side_signs()
    lift0 = plan.lift0 if plan.lift0 is not None else 0.6 * plan.eps
    spread0 = plan.spread0 if plan.spread0 is not None else 0.8 * plan.eps
    failure: Exception | None = None
    scale = 1.0
    for _ in range(plan.max_retries + 1):
        lift = lift0 * scale
        spread = spread0 * scale
        points, mids = [], []
        try:
            for idx, (p, m, mult, side) in enumerate(
                    zip(arr.points, arr.midpoints, plan.multiplicities,
                        signs)):
                P, M = _children(p, m, mult, side, lift, spread,
                                 plan.jitter, rng, tol)
                # each child's p, -p and m, in that order
                dist = _distances(p, m, np.stack([P, -P, M], axis=1
                                                 ).reshape(-1, 3))
                far = np.flatnonzero(dist > plan.eps)
                if len(far):
                    raise ConstructionError(
                        f"child of half-circle {idx} leaves the "
                        f"eps-neighborhood ({dist[far[0]]:.3g} > {plan.eps})")
                points.append(P)
                mids.append(M)
            points, mids = np.concatenate(points), np.concatenate(mids)
            validate_arrangement(points, mids, tol)
            return HalfCircleArrangement(points=points, midpoints=mids)
        except ConstructionError as exc:
            failure = exc
            # shrinking the offsets separates colliding neighborhoods but
            # only worsens near-coplanar endpoints, so general-position
            # failures just redraw the jitter at the current scale
            if "general position" not in str(exc):
                scale *= plan.shrink
            continue
    raise ConstructionError(
        f"blowup failed after {plan.max_retries + 1} attempts; "
        f"last failure: {failure}")


def blowup(arr: HalfCircleArrangement, plan: BlowupPlan, rng=None,
           tol: ToleranceConfig = DEFAULT_TOL
           ) -> tuple[AntipodalConfig, HalfCircleAssignment]:
    """Blow an arrangement up into an antipodal configuration of total
    multiplicity sum(plan.multiplicities), with a validated strength-0
    half-circle assignment."""
    rng = rng if rng is not None else np.random.default_rng(0)
    return _to_config(_blowup(arr, plan, rng, tol), tol, validated=True)


def recursive_construct(seed: HalfCircleArrangement,
                        plans, rng=None,
                        tol: ToleranceConfig = DEFAULT_TOL
                        ) -> tuple[AntipodalConfig, HalfCircleAssignment]:
    """Apply blowup level by level: the half-circles emitted at one level
    become the arrangement for the next.  Construction errors carry the
    failing level."""
    rng = rng if rng is not None else np.random.default_rng(0)
    arr = seed
    for level, plan in enumerate(plans):
        try:
            arr = _blowup(arr, plan, rng, tol)
        except (ConstructionError, ValueError) as exc:
            raise ConstructionError(f"level {level}: {exc}") from exc
    return _to_config(arr, tol, validated=arr is not seed)


def _to_config(arr: HalfCircleArrangement, tol: ToleranceConfig,
               validated: bool
               ) -> tuple[AntipodalConfig, HalfCircleAssignment]:
    """arr's configuration and assignment; general position is not tested
    again where validate_arrangement has passed arr under tol."""
    if len(arr) < 3:
        raise ConstructionError(
            "a drawing configuration needs at least 3 antipodal pairs; "
            f"got {len(arr)}")
    try:
        config = _double(arr.points.copy(), tol, checked=validated)
        asg = make_assignment(config, arr.midpoints, tol)
    except DegenerateConfigurationError as exc:
        raise ConstructionError(f"emitted configuration is degenerate: {exc}"
                                ) from exc
    return config, asg


def min_eps_for_multiplicity(mult: int,
                             tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Smallest neighborhood radius for which a group of ``mult`` children
    keeps its endpoints clear of the general-position margin.

    Triples inside one group have determinants ~ 0.09 eps^5 / (mult-1)^3;
    a pair inside one group against any outside point contributes
    ~ 0.29 eps^3.  Both scales are inverted with a ~20x safety factor.
    """
    if mult < 2:
        return 0.0
    pair_floor = (70.0 * tol.general_position) ** (1.0 / 3.0)
    if mult < 3:
        return pair_floor
    triple_floor = (217.0 * tol.general_position * (mult - 1) ** 3) ** 0.2
    return max(pair_floor, triple_floor)


def default_plan_chain(multiplicity_groups, eps0: float = 0.2,
                       sides=None,
                       tol: ToleranceConfig = DEFAULT_TOL) -> list[BlowupPlan]:
    """Plans for a multi-level construction, one group list per level.

    Each deeper level defaults to an eps one eighth of its parent level's
    (emitted half-circles sit closer together than their parents did),
    floored so that the level's largest group still clears the
    general-position margin.
    """
    plans = []
    eps = eps0
    for level, mults in enumerate(multiplicity_groups):
        level_sides = None
        if sides is not None and level < len(sides) and sides[level]:
            level_sides = tuple(sides[level])
        if level > 0:
            floor = min_eps_for_multiplicity(max(mults), tol)
            eps = min(max(eps, floor), plans[-1].eps / 2.0)
        plans.append(BlowupPlan(multiplicities=tuple(int(m) for m in mults),
                                eps=eps, sides=level_sides))
        eps = eps / 8.0
    return plans


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def perturb(config: AntipodalConfig, asg: HalfCircleAssignment,
            magnitude: float, rng=None,
            tol: ToleranceConfig = DEFAULT_TOL
            ) -> tuple[AntipodalConfig, HalfCircleAssignment]:
    """Rotate every base point and midpoint by a random angle <= magnitude.

    Antipodes are recomputed exactly; the result is re-validated (general
    position and strength 0) and PerturbationError is raised if the wiggle
    broke either property.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if magnitude < 0.0:
        raise ValueError("magnitude must be non-negative")
    k = config.k
    new_base = np.empty_like(config.base)
    new_mids = np.empty_like(asg.midpoints)
    for i in range(k):
        new_base[i] = _random_rotation(config.base[i], magnitude, rng)
        new_mids[i] = _random_rotation(asg.midpoints[i], magnitude, rng)
    try:
        new_config = double(new_base, tol)
        new_asg = make_assignment(new_config, new_mids, tol)
    except DegenerateConfigurationError as exc:
        raise PerturbationError(f"perturbed configuration is degenerate: "
                                f"{exc}") from exc
    try:
        s = strength(new_config, new_asg, tol)
    except DegenerateConfigurationError as exc:
        raise PerturbationError(f"perturbed half-circles are degenerate: "
                                f"{exc}") from exc
    if s != 0:
        raise PerturbationError(
            f"perturbation broke disjointness (strength {s})")
    return new_config, new_asg


def _random_rotation(v, magnitude: float, rng):
    if magnitude == 0.0:
        return np.asarray(v, dtype=float).copy()
    axis = unit(rng.normal(size=3))
    angle = magnitude * rng.uniform(0.0, 1.0)
    return rotate(v, axis, angle)
