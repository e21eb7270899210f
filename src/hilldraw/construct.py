"""Strength-0 constructions: seed arrangements of pairwise disjoint
half-circles and their neighborhood blowups.

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
failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drawing import (AntipodalConfig, HalfCircleAssignment, double,
                      half_circle_crossings, make_assignment, strength)
from .geom import (DEFAULT_TOL, DegenerateConfigurationError, HalfCircle,
                   ToleranceConfig, is_general_position, rotate, unit)


class ConstructionError(Exception):
    """A construction failed validation after all retries."""


class PerturbationError(ConstructionError):
    """A perturbed configuration no longer validates."""


@dataclass(frozen=True)
class HalfCircleArrangement:
    """A set of pairwise disjoint half-circles with generic endpoints."""

    halves: tuple[HalfCircle, ...]

    def __len__(self) -> int:
        return len(self.halves)

    def endpoints(self) -> np.ndarray:
        return np.stack([h.p for h in self.halves])


def validate_arrangement(halves, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Raise ConstructionError unless the half-circles are pairwise disjoint
    and their endpoints are a general-position point set."""
    pts = np.array([h.p for h in halves])
    try:
        crossing = half_circle_crossings(pts, np.array([h.m for h in halves]),
                                         tol)
    except DegenerateConfigurationError as exc:
        raise ConstructionError(f"half-circles are degenerate: {exc}"
                                ) from exc
    if len(crossing):
        i, j = crossing[0]
        raise ConstructionError(f"half-circles {i} and {j} cross")
    if len(pts) >= 3 and not is_general_position(pts, tol):
        raise ConstructionError("arrangement endpoints are not in general "
                                "position")


def arrangement(halves, tol: ToleranceConfig = DEFAULT_TOL) -> HalfCircleArrangement:
    arr = HalfCircleArrangement(halves=tuple(halves))
    validate_arrangement(arr.halves, tol)
    return arr


# ---------------------------------------------------------------------------
# seed arrangements
# ---------------------------------------------------------------------------

def seed_single(tol: ToleranceConfig = DEFAULT_TOL) -> HalfCircleArrangement:
    """One equatorial half-circle: endpoints (+-1, 0, 0), midpoint (0, 1, 0)."""
    return arrangement([HalfCircle(np.array([1.0, 0.0, 0.0]),
                                   np.array([0.0, 1.0, 0.0]), tol)], tol)


def seed_two(tol: ToleranceConfig = DEFAULT_TOL) -> HalfCircleArrangement:
    """Half of the equator plus a pole-to-pole half on the far meridian.

    Both are tilted by a small fixed rotation so the endpoints sit in
    generic position instead of on coordinate axes.
    """
    h1 = _tilted(HalfCircle(np.array([1.0, 0.0, 0.0]),
                            np.array([0.0, 1.0, 0.0]), tol),
                 axis=(0.31, 0.52, 0.80), angle=0.03, tol=tol)
    h2 = _tilted(HalfCircle(np.array([0.0, 0.0, 1.0]),
                            np.array([0.0, -1.0, 0.0]), tol),
                 axis=(0.72, -0.21, 0.41), angle=0.05, tol=tol)
    return arrangement([h1, h2], tol)


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
        halves.append(HalfCircle(p, unit(np.cross(p, zhat)), tol))
    return arrangement(halves, tol)


SEEDS = {"single": seed_single, "two": seed_two, "four": seed_four}


def _tilted(h: HalfCircle, axis, angle: float,
            tol: ToleranceConfig) -> HalfCircle:
    return HalfCircle(rotate(h.p, axis, angle), rotate(h.m, axis, angle), tol)


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
        if self.sides is not None:
            if len(self.sides) != len(self.multiplicities):
                raise ValueError("need one side flag per half-circle")
            for s in self.sides:
                if s not in ("below", "above"):
                    raise ValueError(f"unknown side flag {s!r}")

    def side_signs(self) -> tuple[int, ...]:
        sides = self.sides or ("below",) * len(self.multiplicities)
        return tuple(-1 if s == "below" else +1 for s in sides)


def _children(parent: HalfCircle, mult: int, side: int, lift: float,
              spread: float, jitter: float, rng,
              tol: ToleranceConfig) -> list[HalfCircle]:
    p, m = parent.p, parent.m
    n = np.cross(p, m)
    spacing = spread / max(mult - 1, 1)
    out = []
    for i in range(mult):
        zeta = spread * (i / (mult - 1) - 0.5) if mult > 1 else 0.0
        # deterministic-seeded jitter keeps the fan off exact symmetries
        zeta += spacing * (0.1 + jitter * rng.uniform(-1.0, 1.0))
        w = math.cos(zeta) * (side * n) + math.sin(zeta) * m
        child_p = math.cos(lift) * p + math.sin(lift) * w
        child_m = math.cos(zeta) * m - side * math.sin(zeta) * n
        out.append(HalfCircle(child_p, child_m, tol))
    return out


def _blowup_halves(arr: HalfCircleArrangement, plan: BlowupPlan, rng,
                   tol: ToleranceConfig) -> tuple[list[HalfCircle], list[int]]:
    """Emit and validate children for every parent; returns the children and
    their parent indices.  Retries with shrunk offsets on failure."""
    if len(plan.multiplicities) != len(arr.halves):
        raise ValueError(f"plan lists {len(plan.multiplicities)} "
                         f"multiplicities for {len(arr.halves)} half-circles")
    signs = plan.side_signs()
    lift0 = plan.lift0 if plan.lift0 is not None else 0.6 * plan.eps
    spread0 = plan.spread0 if plan.spread0 is not None else 0.8 * plan.eps
    failure: Exception | None = None
    scale = 1.0
    for _ in range(plan.max_retries + 1):
        lift = lift0 * scale
        spread = spread0 * scale
        halves: list[HalfCircle] = []
        parents: list[int] = []
        try:
            for idx, (parent, mult, side) in enumerate(
                    zip(arr.halves, plan.multiplicities, signs)):
                kids = _children(parent, mult, side, lift, spread,
                                 plan.jitter, rng, tol)
                for child in kids:
                    for x in (child.p, -child.p, child.m):
                        dist = parent.distance_to(x)
                        if dist > plan.eps:
                            raise ConstructionError(
                                f"child of half-circle {idx} leaves the "
                                f"eps-neighborhood ({dist:.3g} > {plan.eps})")
                halves.extend(kids)
                parents.extend([idx] * mult)
            validate_arrangement(halves, tol)
            return halves, parents
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
    halves, _ = _blowup_halves(arr, plan, rng, tol)
    return _to_config(halves, tol)


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
            halves, _ = _blowup_halves(arr, plan, rng, tol)
        except (ConstructionError, ValueError) as exc:
            raise ConstructionError(f"level {level}: {exc}") from exc
        arr = HalfCircleArrangement(halves=tuple(halves))
    return _to_config(list(arr.halves), tol)


def _to_config(halves: list[HalfCircle], tol: ToleranceConfig
               ) -> tuple[AntipodalConfig, HalfCircleAssignment]:
    if len(halves) < 3:
        raise ConstructionError(
            "a drawing configuration needs at least 3 antipodal pairs; "
            f"got {len(halves)}")
    base = np.stack([h.p for h in halves])
    mids = np.stack([h.m for h in halves])
    try:
        config = double(base, tol)
        asg = make_assignment(config, mids, tol)
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
