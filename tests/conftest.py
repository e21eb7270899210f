import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hilldraw.construct import BlowupPlan, blowup, seed_four, seed_single, \
    seed_two
from hilldraw.drawing import extend_to_complete, make_assignment
from hilldraw.geom import DegenerateConfigurationError, unit

from .oracles import HalfCircle

settings.register_profile(
    "ci", derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much,
                           HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit_points(k, rng):
    pts = rng.normal(size=(k, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


SEEDS = {"single": seed_single, "two": seed_two, "four": seed_four}


def splits(seed, k):
    """Multiplicities that split k over the seed's half-circles."""
    parts = {"single": 1, "two": 2, "four": 4}[seed]
    q, r = divmod(k, parts)
    return tuple(q + (1 if i < r else 0) for i in range(parts))


def hill(seed, k, rng):
    """Hill pairs (config, asg) of k antipodal couples: the seed
    arrangement blown up by splits(seed, k), with rng a Generator or a
    seed for one."""
    return blowup(SEEDS[seed](), BlowupPlan(multiplicities=splits(seed, k)),
                  np.random.default_rng(rng))


def half_circles(config, asg):
    """The k matching half-circles of an assignment, as scalar curves."""
    return [HalfCircle(p, m) for p, m in zip(config.base, asg.midpoints)]


def midpoint_near_arc(config, asg, i, det):
    """The complete drawing of asg with midpoint i moved, within the plane
    normal to base point i, next to the interior of an arc ab that this
    plane cuts, with det(a, b, m) = det up to rounding: the first such arc
    whose drawing validates.  Returns the drawing and (a, b)."""
    p = config.base[i]
    side = config.doubled @ p
    for a in np.flatnonzero(side > 1e-3):
        for b in np.flatnonzero(side < -1e-3):
            if b == config.partner(a):
                continue
            y = unit(side[a] * config.doubled[b] - side[b] * config.doubled[a])
            w = unit(np.cross(p, y))
            normal = np.cross(config.doubled[a], config.doubled[b])
            mids = asg.midpoints.copy()
            mids[i] = unit(y + det / float(w @ normal) * w)
            try:
                return extend_to_complete(
                    config, make_assignment(config, mids)), (a, b)
            except DegenerateConfigurationError:
                continue
    raise DegenerateConfigurationError("no arc takes the midpoint")
