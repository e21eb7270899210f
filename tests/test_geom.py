import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hilldraw.geom import (DEFAULT_TOL, DegenerateConfigurationError,
                           GeodesicArc, HalfCircle, ToleranceConfig,
                           angular_distance, antipode, arcs_cross,
                           curve_frame, half_circle_crosses_arc,
                           half_circles_cross, is_general_position, orient,
                           rotate, unit)

from .oracles import (crossing_oracle_bisect, crossing_oracle_sampled,
                      frames_cross_reference)

S3 = 1.0 / math.sqrt(3.0)
S2 = 1.0 / math.sqrt(2.0)
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def coords(st_float=st.floats(-1.0, 1.0, allow_nan=False)):
    return st.tuples(st_float, st_float, st_float).filter(
        lambda t: 0.05 < (t[0] ** 2 + t[1] ** 2 + t[2] ** 2) < 3.5)


unit_vectors = coords().map(lambda t: unit(np.array(t)))


def _outcome(test, *args):
    try:
        return test(*args)
    except DegenerateConfigurationError as exc:
        return DegenerateConfigurationError, str(exc)


def checked(predicate, c1, c2):
    """predicate(c1, c2), asserted equal to the scalar reference on the
    curves' frames, refusal messages included."""
    got = _outcome(predicate, c1, c2)
    assert got == _outcome(frames_cross_reference, curve_frame(c1),
                           curve_frame(c2), DEFAULT_TOL)
    if isinstance(got, tuple):
        raise got[0](got[1])
    return got


class TestToleranceConfig:
    def test_defaults_valid(self):
        tol = ToleranceConfig()
        assert tol.sign < tol.general_position

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(norm=0.0)

    def test_rejects_sign_wider_than_gp(self):
        with pytest.raises(ValueError):
            ToleranceConfig(sign=1e-8, general_position=1e-9)

    def test_roundtrip(self):
        tol = ToleranceConfig(norm=1e-10, perp=1e-11,
                              general_position=1e-8, sign=1e-10)
        assert ToleranceConfig.from_dict(tol.to_dict()) == tol


class TestOrient:
    def test_identity_frame(self):
        assert orient(X, Y, Z) == 1

    def test_reflected_frame(self):
        assert orient(X, Y, -Z) == -1

    def test_antipodal_pair_coplanar(self):
        assert orient(X, -X, Y) == 0

    @given(unit_vectors, unit_vectors, unit_vectors)
    def test_antisymmetric_in_swap(self, p, q, r):
        assert orient(p, q, r) == -orient(q, p, r)


class TestGeneralPosition:
    def test_orthonormal_frame(self):
        assert is_general_position([X, Y, Z])

    def test_three_on_equator(self):
        assert not is_general_position([X, Y, unit(X + Y)])

    def test_antipodal_pair_breaks_it(self):
        assert not is_general_position([X, -X, Z])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            is_general_position([X, Y])


class TestAntipode:
    def test_pole(self):
        assert np.array_equal(antipode(Z), -Z)

    def test_equator(self):
        assert np.array_equal(antipode(X), -X)

    @given(unit_vectors)
    def test_involution(self, p):
        assert np.array_equal(antipode(antipode(p)), p)


class TestRotate:
    def test_quarter_turn(self):
        assert np.allclose(rotate(X, Z, math.pi / 2), Y, atol=1e-15)

    @given(unit_vectors, unit_vectors)
    def test_zero_angle_is_identity(self, v, axis):
        assert np.allclose(rotate(v, axis, 0.0), v, atol=0)

    @given(unit_vectors, unit_vectors,
           st.floats(-3.0, 3.0, allow_nan=False))
    def test_inverse(self, v, axis, theta):
        back = rotate(rotate(v, axis, theta), axis, -theta)
        assert np.allclose(back, v, atol=1e-12)


class TestUnit:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            unit([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vector(self, value):
        with pytest.raises(ValueError, match="non-finite norm"):
            unit([value, 0.0, 1.0])


class TestCurveConstruction:
    def test_arc_rejects_antipodal_endpoints(self):
        with pytest.raises(DegenerateConfigurationError):
            GeodesicArc(X, -X)

    def test_arc_rejects_equal_endpoints(self):
        with pytest.raises(DegenerateConfigurationError):
            GeodesicArc(X, X)

    def test_arc_endpoints_param(self):
        arc = GeodesicArc(X, Y)
        assert np.allclose(arc.point_at(0.0), X, atol=1e-15)
        assert np.allclose(arc.point_at(1.0), Y, atol=1e-12)
        assert arc.length() == pytest.approx(math.pi / 2)

    def test_half_circle_orthonormalizes_midpoint(self):
        h = HalfCircle(Z, unit(np.array([1.0, 0.0, 0.5])))
        assert abs(float(h.p @ h.m)) <= DEFAULT_TOL.perp
        assert np.allclose(h.m, X, atol=1e-12)

    def test_half_circle_keeps_exact_witness_bits(self):
        h = HalfCircle(Z, X)
        assert np.array_equal(h.m, X)

    def test_half_circle_rejects_parallel_witness(self):
        with pytest.raises(DegenerateConfigurationError):
            HalfCircle(Z, -Z)

    def test_half_circle_runs_between_antipodes(self):
        h = HalfCircle(Z, X)
        assert np.allclose(h.point_at(0.0), Z, atol=1e-15)
        assert np.allclose(h.point_at(1.0), -Z, atol=1e-12)
        assert np.allclose(h.point_at(0.5), X, atol=1e-12)


class TestArcsCross:
    def test_crossing_pair(self):
        # both arcs pass through (1,1,0)/sqrt(2)
        e1 = GeodesicArc(X, Y)
        e2 = GeodesicArc(unit(np.array([1.0, 1.0, 1.0])),
                         unit(np.array([1.0, 1.0, -1.0])))
        assert crossing_oracle_sampled(e1, e2)
        assert checked(arcs_cross, e1, e2)

    def test_disjoint_pair(self):
        # the second arc stays strictly above the equator
        e1 = GeodesicArc(X, Y)
        e2 = GeodesicArc(Z, unit(np.array([1.0, 1.0, 1.0])))
        assert not crossing_oracle_sampled(e1, e2)
        assert not checked(arcs_cross, e1, e2)

    def test_self_pair_degenerate(self):
        e = GeodesicArc(X, Y)
        with pytest.raises(DegenerateConfigurationError):
            checked(arcs_cross, e, e)

    def test_same_circle_degenerate(self):
        e1 = GeodesicArc(X, Y)
        e2 = GeodesicArc(unit(X + 2 * Y), unit(2 * X + Y))
        with pytest.raises(DegenerateConfigurationError):
            checked(arcs_cross, e1, e2)


class TestHalfCircleCrossesArc:
    ARC = GeodesicArc(unit(np.array([1.0, 1.0, 1.0])),
                      unit(np.array([1.0, -1.0, -1.0])))

    def test_crossing_side(self):
        h = HalfCircle(Z, X)
        assert crossing_oracle_bisect(h, self.ARC)[0]
        assert checked(half_circle_crosses_arc, h, self.ARC)

    def test_flipped_midpoint_misses(self):
        h = HalfCircle(Z, -X)
        assert not crossing_oracle_bisect(h, self.ARC)[0]
        assert not checked(half_circle_crosses_arc, h, self.ARC)

    def test_arc_in_far_hemisphere(self):
        h = HalfCircle(Z, X)
        arc = GeodesicArc(unit(np.array([-1.0, 0.5, 0.3])),
                          unit(np.array([-1.0, -0.5, 0.2])))
        assert not checked(half_circle_crosses_arc, h, arc)


class TestHalfCirclesCross:
    def test_common_midpoint_direction(self):
        h1 = HalfCircle(X, Y)
        h2 = HalfCircle(Z, Y)
        assert checked(half_circles_cross, h1, h2)

    def test_opposite_midpoints_miss(self):
        h1 = HalfCircle(X, Y)
        h2 = HalfCircle(Z, -Y)
        assert not checked(half_circles_cross, h1, h2)

    def test_oracle_agreement_on_fixed_cases(self):
        h1 = HalfCircle(X, Y)
        for m2, expected in ((Y, True), (-Y, False)):
            h2 = HalfCircle(Z, m2)
            assert crossing_oracle_bisect(h1, h2)[0] is expected


@given(unit_vectors, unit_vectors, unit_vectors, unit_vectors)
def test_arcs_cross_symmetric(a, b, c, d):
    try:
        e1 = GeodesicArc(a, b)
        e2 = GeodesicArc(c, d)
        r1 = checked(arcs_cross, e1, e2)
        r2 = checked(arcs_cross, e2, e1)
    except DegenerateConfigurationError:
        assume(False)
    assert r1 == r2


@given(unit_vectors, unit_vectors, unit_vectors, unit_vectors)
def test_arcs_cross_antipodal_equivariance(a, b, c, d):
    try:
        r1 = checked(arcs_cross, GeodesicArc(a, b), GeodesicArc(c, d))
        r2 = checked(arcs_cross, GeodesicArc(-a, -b), GeodesicArc(-c, -d))
    except DegenerateConfigurationError:
        assume(False)
    assert r1 == r2


@given(unit_vectors, unit_vectors, unit_vectors)
def test_adjacent_arcs_refused_by_predicate(a, b, c):
    """Arcs sharing an endpoint meet the other circle exactly on the shared
    vertex axis, a structural zero of the sign test: the predicate must
    refuse rather than answer.  (Counting skips adjacent pairs upstream.)"""
    assume(float(np.linalg.norm(np.cross(a, b))) > 1e-3)
    assume(float(np.linalg.norm(np.cross(a, c))) > 1e-3)
    assume(float(np.linalg.norm(np.cross(b, c))) > 1e-3)
    e1 = GeodesicArc(a, b)
    e2 = GeodesicArc(a, c)
    assume(float(np.linalg.norm(np.cross(e1.normal, e2.normal))) > 1e-3)
    with pytest.raises(DegenerateConfigurationError):
        checked(arcs_cross, e1, e2)


@given(unit_vectors, unit_vectors, unit_vectors, unit_vectors)
def test_half_circle_parity_on_antipodal_arc_images(p, m, a, b):
    """When an arc pierces the half-circle's great circle, exactly one of
    the arc and its antipodal image meets the half-circle."""
    assume(float(np.linalg.norm(np.cross(a, b))) > 1e-3)
    try:
        h = HalfCircle(p, m)
        e = GeodesicArc(a, b)
        pierces = (float(a @ h.normal) > 1e-6) != (float(b @ h.normal) > 1e-6)
        assume(abs(float(a @ h.normal)) > 1e-6)
        assume(abs(float(b @ h.normal)) > 1e-6)
        r1 = checked(half_circle_crosses_arc, h, e)
        r2 = checked(half_circle_crosses_arc, h, e.antipodal_image())
    except DegenerateConfigurationError:
        assume(False)
    if pierces:
        assert r1 != r2
    else:
        assert not r1 and not r2


@given(unit_vectors, unit_vectors, unit_vectors, unit_vectors)
def test_half_circles_cross_matches_reference(p, m, q, w):
    try:
        h1, h2 = HalfCircle(p, m), HalfCircle(q, w)
    except DegenerateConfigurationError:
        assume(False)
    try:
        checked(half_circles_cross, h1, h2)
    except DegenerateConfigurationError:
        pass        # refused by both, with one message


def test_predicate_agrees_with_independent_oracle_100k(rng):
    """10^5 random valid arc pairs: the batched predicate and the census's
    ab|cd sign pattern must match the bisection-and-arc-length oracle away
    from its resolution limit."""
    from hilldraw.geom import arc_frames, frame_signs
    from hilldraw.montecarlo import _dependency
    from .oracles import bulk_bisection_oracle

    n = 100_000
    pts = rng.normal(size=(n, 4, 3))
    pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    A, B, C, D = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    sep = np.minimum(np.linalg.norm(np.cross(A, B), axis=1),
                     np.linalg.norm(np.cross(C, D), axis=1))
    want, margin = bulk_bisection_oracle(A, B, C, D)
    sign = DEFAULT_TOL.sign

    got, nx, mags = frame_signs(*(tuple(M.T for M in arc_frames(P, Q))
                                  for P, Q in ((A, B), (C, D))))
    valid = (nx > sign) & (mags > sign * nx)
    lam = _dependency(A.T, B.T, C.T, D.T)
    pos = lam > 0.0
    pattern = (pos[0] == pos[1]) & (pos[2] == pos[3]) & (pos[0] != pos[2])
    for verdict, ok in ((got, valid),
                        (pattern, np.all(np.abs(lam) > sign, axis=0))):
        usable = ok & (sep > 1e-6) & (margin > 1e-7)
        assert usable.mean() > 0.99
        assert np.array_equal(verdict[usable], want[usable])


def test_predicate_agrees_with_sampled_proximity_oracle(rng):
    """Spot agreement with the literal dense-sampling proximity oracle,
    away from its resolution (the sampling spacing)."""
    from .oracles import bulk_bisection_oracle

    segments = 4000
    exclusion = 4.0 * math.pi / segments
    compared = 0
    while compared < 40:
        pts = rng.normal(size=(4, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        try:
            e1 = GeodesicArc(pts[0], pts[1])
            e2 = GeodesicArc(pts[2], pts[3])
            got = checked(arcs_cross, e1, e2)
        except DegenerateConfigurationError:
            continue
        _, margin = bulk_bisection_oracle(pts[None, 0], pts[None, 1],
                                          pts[None, 2], pts[None, 3])
        if margin[0] < exclusion:
            continue
        assert crossing_oracle_sampled(e1, e2, segments) == got
        compared += 1


def test_angular_distance_matches_acos(rng):
    for _ in range(50):
        u, v = rng.normal(size=(2, 3))
        u, v = unit(u), unit(v)
        assert angular_distance(u, v) == pytest.approx(
            math.acos(max(-1.0, min(1.0, float(u @ v)))), abs=1e-12)
