import math
import warnings

import numpy as np
import pytest

from hilldraw import construct
from hilldraw.construct import (BlowupPlan, ConstructionError,
                                PerturbationError, blowup,
                                default_plan_chain, min_eps_for_multiplicity,
                                perturb, recursive_construct, seed_four,
                                seed_single, seed_two, validate_arrangement)
from hilldraw.drawing import (count_crossings, extend_to_complete, strength,
                              verify)
from hilldraw.formulas import hill_number
from hilldraw.geom import (DEFAULT_TOL, ToleranceConfig, cross,
                           is_general_position, rotate, unit)

from .conftest import SEEDS, random_unit_points
from .oracles import HalfCircle, half_circle_distance_reference

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def _seed_half_circles(name, tol):
    """The seed arrangement's half-circles built one at a time, from the
    seed's own formulas, as the scalar curves of tests/oracles.py."""
    if name == "single":
        rows = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    elif name == "two":
        tilts = (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.31, 0.52, 0.80), 0.03),
                 ((0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (0.72, -0.21, 0.41),
                  0.05))
        rows = [(rotate(p, axis, angle), rotate(m, axis, angle))
                for p, m, axis, angle in tilts]
    else:
        zhat = np.array([0.0, 0.0, 1.0])
        rows = []
        for i, az in enumerate((0.3, 1.9, 3.6, 5.1)):
            lat = 0.7 + 0.04 * i
            p = np.array([math.sin(lat) * math.cos(az),
                          math.sin(lat) * math.sin(az),
                          math.cos(lat)])
            rows.append((p, unit(cross(p, zhat))))
    return [HalfCircle(p, m, tol) for p, m in rows]


class TestSeeds:
    @pytest.mark.parametrize("tol", (DEFAULT_TOL, ToleranceConfig(
        norm=1e-9, perp=1e-9, general_position=1e-7, sign=1e-10),
        ToleranceConfig(norm=1e-20, perp=1e-20)),
        ids=("default", "loose", "exact"))
    @pytest.mark.parametrize("name", ("single", "two", "four"))
    def test_arrays_are_the_half_circles(self, name, tol):
        """Each seed's points and midpoints are, byte for byte, the p and
        m of HalfCircle built on its formulas row by row.  Under margins
        below rounding, seed_four's witnesses are repaired, as HalfCircle
        repairs them, in rows where np.einsum's products would have
        found them unit and orthogonal."""
        arr = SEEDS[name](tol)
        halves = _seed_half_circles(name, tol)
        assert arr.points.tobytes() == np.array(
            [h.p for h in halves]).tobytes()
        assert arr.midpoints.tobytes() == np.array(
            [h.m for h in halves]).tobytes()

    def test_single(self):
        arr = seed_single()
        assert len(arr) == 1
        validate_arrangement(arr.points, arr.midpoints)
        assert not arr.points.flags.writeable
        assert not arr.midpoints.flags.writeable

    def test_two(self):
        arr = seed_two()
        assert len(arr) == 2
        validate_arrangement(arr.points, arr.midpoints)
        # perturbed off the coordinate axes
        assert not np.array_equal(arr.points[0], [1.0, 0.0, 0.0])

    def test_four(self):
        arr = seed_four()
        assert len(arr) == 4
        validate_arrangement(arr.points, arr.midpoints)
        assert is_general_position(arr.points)

    def test_non_finite_point_is_refused(self):
        """Refused up front, by name: the sweep once refused it as
        "half-circles are degenerate: edges 0 and 1 lie on the same great
        circle"."""
        arr = seed_four()
        points = arr.points.copy()
        points[1] = np.nan
        with pytest.raises(ValueError) as err:
            validate_arrangement(points, arr.midpoints)
        assert str(err.value) == "point 1 is not finite: [nan, nan, nan]"

    @pytest.mark.parametrize("row, value, text", [
        (2, np.inf, "[inf, inf, inf]"), (0, np.nan, "[nan, nan, nan]")])
    def test_non_finite_midpoint_is_refused(self, row, value, text):
        """After every point is found finite; no numpy warning."""
        arr = seed_four()
        mids = arr.midpoints.copy()
        mids[row] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                validate_arrangement(arr.points, mids)
        assert str(err.value) == f"midpoint {row} is not finite: {text}"


class TestBlowup:
    def test_single_seed_multiplicities(self):
        for k in (3, 4, 6):
            config, asg = blowup(seed_single(),
                                 BlowupPlan(multiplicities=(k,)),
                                 np.random.default_rng(1))
            assert config.k == k
            assert strength(config, asg) == 0
            assert is_general_position(config.base)

    def test_containment_within_eps(self):
        eps = 0.15
        arr = seed_single()
        parent = HalfCircle(arr.points[0], arr.midpoints[0])
        config, asg = blowup(arr, BlowupPlan(multiplicities=(5,), eps=eps),
                             np.random.default_rng(3))
        for p, m in zip(config.base, asg.midpoints):
            for x in (p, -p, m):
                assert half_circle_distance_reference(parent, x) <= eps

    def test_full_pipeline_counts(self):
        cases = [(seed_single(), (5,)), (seed_two(), (2, 3)),
                 (seed_four(), (1, 2, 1, 1))]
        for arr, mults in cases:
            config, asg = blowup(arr, BlowupPlan(multiplicities=mults),
                                 np.random.default_rng(2))
            k = sum(mults)
            d = extend_to_complete(config, asg)
            assert count_crossings(d).total == hill_number(2 * k)

    def test_multiplicity_one_still_moves_inside_eps(self):
        arr = seed_four()
        config, asg = blowup(arr, BlowupPlan(multiplicities=(1, 1, 1, 1),
                                             eps=0.1),
                             np.random.default_rng(5))
        for a, m, p in zip(arr.points, arr.midpoints, config.base):
            assert not np.array_equal(a, p)
            assert half_circle_distance_reference(HalfCircle(a, m), p) <= 0.1

    def test_deterministic_for_fixed_rng_seed(self):
        plan = BlowupPlan(multiplicities=(4,))
        c1, a1 = blowup(seed_single(), plan, np.random.default_rng(9))
        c2, a2 = blowup(seed_single(), plan, np.random.default_rng(9))
        assert np.array_equal(c1.base, c2.base)
        assert np.array_equal(a1.midpoints, a2.midpoints)
        c3, _ = blowup(seed_single(), plan, np.random.default_rng(10))
        assert not np.array_equal(c1.base, c3.base)

    def test_wrong_multiplicity_count(self):
        with pytest.raises(ValueError):
            blowup(seed_two(), BlowupPlan(multiplicities=(2,)),
                   np.random.default_rng(0))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            BlowupPlan(multiplicities=(0,))
        with pytest.raises(ValueError):
            BlowupPlan(multiplicities=(2,), eps=0.0)
        with pytest.raises(ValueError):
            BlowupPlan(multiplicities=(2,), sides=("sideways",))

    @pytest.mark.parametrize("field, value, message", [
        ("max_retries", -1, "max_retries must be non-negative and jitter "
         "finite"),
        ("lift0", float("nan"), "lift0 must be positive and finite"),
        ("lift0", 0.0, "lift0 must be positive and finite"),
        ("lift0", -0.1, "lift0 must be positive and finite"),
        ("spread0", float("inf"), "spread0 must be positive and finite"),
        ("spread0", 0.0, "spread0 must be positive and finite"),
        ("jitter", float("nan"), "max_retries must be non-negative and "
         "jitter finite"),
        ("jitter", float("-inf"), "max_retries must be non-negative and "
         "jitter finite"),
    ])
    def test_plan_rejects_bad_offsets(self, field, value, message):
        with pytest.raises(ValueError) as err:
            BlowupPlan(multiplicities=(3,), **{field: value})
        assert str(err.value) == message

    def test_too_few_total_pairs(self):
        with pytest.raises(ConstructionError):
            blowup(seed_single(), BlowupPlan(multiplicities=(2,)),
                   np.random.default_rng(0))


class TestDistances:
    """The containment check's distances, all of a parent's children at
    once, against the scalar reference."""

    def test_known_values(self):
        got = construct._distances(Z, X, np.stack(
            [X, Y, unit(X + Y), -X, Z, -Z, unit(Z - X)]))
        want = [0.0, math.pi / 2, math.pi / 4, math.pi / 2, 0.0, 0.0,
                math.pi / 4]
        assert got == pytest.approx(want, abs=1e-15)

    def test_match_scalar_reference(self, rng):
        for _ in range(200):
            h = HalfCircle(*random_unit_points(2, rng))
            pts = random_unit_points(9, rng)
            near = h.p + 0.2 * random_unit_points(9, rng)
            pts = np.concatenate([pts, near / np.linalg.norm(
                near, axis=1, keepdims=True)])
            want = [half_circle_distance_reference(h, x) for x in pts]
            # both round x.n; asin magnifies that near a quarter turn
            assert construct._distances(h.p, h.m, pts) == pytest.approx(
                want, rel=0.0, abs=1e-14)


class TestContainmentRefusal:
    """A lift beyond eps: the first child leaves its parent's
    neighborhood, on every attempt."""

    def test_single_attempt(self):
        plan = BlowupPlan(multiplicities=(3,), eps=0.1, lift0=0.3,
                          max_retries=0)
        message = ("blowup failed after 1 attempts; last failure: child of "
                   "half-circle 0 leaves the eps-neighborhood (0.3 > 0.1)")
        with pytest.raises(ConstructionError) as err:
            blowup(seed_single(), plan, np.random.default_rng(0))
        assert str(err.value) == message
        with pytest.raises(ConstructionError) as err:
            recursive_construct(seed_single(), [plan],
                                np.random.default_rng(0))
        assert str(err.value) == f"level 0: {message}"

    def test_shrunk_attempts(self):
        plan = BlowupPlan(multiplicities=(3,), eps=0.1, lift0=1.0,
                          max_retries=2)
        rng = np.random.default_rng(0)
        with pytest.raises(ConstructionError) as err:
            blowup(seed_single(), plan, rng)
        assert str(err.value) == (
            "blowup failed after 3 attempts; last failure: child of "
            "half-circle 0 leaves the eps-neighborhood (0.25 > 0.1)")
        # three jitter draws per attempt
        spent = np.random.default_rng(0)
        spent.uniform(-1.0, 1.0, size=9)
        assert rng.bit_generator.state == spent.bit_generator.state

    def test_later_parents_draw_nothing(self):
        """Parent 0 of two fails: its 2 draws are spent, parent 1's 3 are
        not."""
        plan = BlowupPlan(multiplicities=(2, 3), eps=0.1, lift0=0.3,
                          max_retries=0)
        rng = np.random.default_rng(0)
        with pytest.raises(ConstructionError, match="half-circle 0 leaves"):
            blowup(seed_two(), plan, rng)
        spent = np.random.default_rng(0)
        spent.uniform(-1.0, 1.0, size=2)
        assert rng.bit_generator.state == spent.bit_generator.state


class TestRecursive:
    def test_depth_one_equals_blowup_shape(self):
        plans = default_plan_chain([[4]])
        config, asg = recursive_construct(seed_single(), plans,
                                          np.random.default_rng(4))
        assert config.k == 4
        assert strength(config, asg) == 0

    def test_depth_two_count(self):
        plans = default_plan_chain([[2], [2, 2]])
        config, asg = recursive_construct(seed_single(), plans,
                                          np.random.default_rng(4))
        assert config.k == 4
        d = extend_to_complete(config, asg)
        assert count_crossings(d).total == hill_number(8)

    def test_depth_two_with_mult3_groups(self):
        plans = default_plan_chain([[3], [3, 3, 3]])
        config, asg = recursive_construct(seed_single(), plans,
                                          np.random.default_rng(4))
        assert config.k == 9
        assert verify(extend_to_complete(config, asg)).passed

    def test_flags_give_distinct_drawings_with_equal_totals(self):
        """Far-apart nodes blown below vs above: totals agree, the
        crossing-pair sets do not."""
        vectors = [("below",) * 4, ("above", "below", "below", "below"),
                   ("below", "above", "below", "below")]
        seen = []
        for sides in vectors:
            plans = default_plan_chain(
                [[1, 1, 1, 1], [2, 2, 1, 1]],
                sides=[None, sides])
            config, asg = recursive_construct(seed_four(), plans,
                                              np.random.default_rng(6))
            rep = count_crossings(extend_to_complete(config, asg))
            assert rep.total == hill_number(12)
            seen.append(rep.pair_set())
        assert seen[0] != seen[1]
        assert seen[0] != seen[2]

    def test_error_reports_level(self):
        # level 1 has the wrong group count
        plans = [BlowupPlan(multiplicities=(2,)),
                 BlowupPlan(multiplicities=(2,), eps=0.02)]
        with pytest.raises(ConstructionError, match="level 1"):
            recursive_construct(seed_single(), plans,
                                np.random.default_rng(0))

    def test_loosened_tolerance_unlocks_depth_three(self):
        tol = ToleranceConfig(general_position=1e-11)
        plans = default_plan_chain([[2], [2, 2], [1, 2, 1, 2]], tol=tol)
        config, asg = recursive_construct(seed_single(tol), plans,
                                          np.random.default_rng(11), tol)
        assert config.k == 6
        assert verify(extend_to_complete(config, asg, tol), tol).passed


class TestDefaultPlanChain:
    def test_eps_floor_raises_with_multiplicity(self):
        assert min_eps_for_multiplicity(2) < min_eps_for_multiplicity(3)
        assert min_eps_for_multiplicity(3) < min_eps_for_multiplicity(10)

    def test_second_level_floored(self):
        plans = default_plan_chain([[3], [3, 3, 3]], eps0=0.2)
        assert plans[1].eps >= min_eps_for_multiplicity(3)
        assert plans[1].eps <= plans[0].eps / 2


class TestPerturb:
    def fixture_pairs(self):
        return blowup(seed_single(), BlowupPlan(multiplicities=(4,)),
                      np.random.default_rng(8))

    def test_zero_magnitude_identity(self):
        config, asg = self.fixture_pairs()
        c2, a2 = perturb(config, asg, 0.0, np.random.default_rng(0))
        assert np.array_equal(c2.base, config.base)
        assert np.array_equal(a2.midpoints, asg.midpoints)

    def test_tiny_magnitude_preserves_counts(self):
        config, asg = self.fixture_pairs()
        c2, a2 = perturb(config, asg, 1e-6, np.random.default_rng(1))
        d1 = extend_to_complete(config, asg)
        d2 = extend_to_complete(c2, a2)
        r1, r2 = count_crossings(d1), count_crossings(d2)
        assert r1.total == r2.total
        assert r1 == r2

    def test_large_magnitude_fails_validation(self):
        config, asg = self.fixture_pairs()
        with pytest.raises(PerturbationError):
            perturb(config, asg, 0.8, np.random.default_rng(2))

    def test_negative_magnitude_rejected(self):
        config, asg = self.fixture_pairs()
        with pytest.raises(ValueError):
            perturb(config, asg, -1.0, np.random.default_rng(0))
