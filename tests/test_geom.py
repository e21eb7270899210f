import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hilldraw
from hilldraw import geom
from hilldraw.geom import (DEFAULT_TOL, DegenerateConfigurationError,
                           ToleranceConfig, antipode, cross,
                           is_general_position, loose_midpoints,
                           repair_midpoints, rotate, unit, upper_pairs)

from .oracles import (GeodesicArc, HalfCircle, angular_distance, arcs_cross,
                      crossing_oracle_bisect, crossing_oracle_sampled,
                      curve_frame, frames_cross_reference,
                      half_circle_crosses_arc, half_circles_cross, orient)

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

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_row_is_not(self, bad):
        """A NaN determinant is no proof of general position."""
        with np.errstate(invalid="ignore"):
            assert not is_general_position([X, Y, Z, (bad, 0.0, 0.0)])


class TestAntipode:
    def test_pole(self):
        assert np.array_equal(antipode(Z), -Z)

    def test_equator(self):
        assert np.array_equal(antipode(X), -X)

    @given(unit_vectors)
    def test_involution(self, p):
        assert np.array_equal(antipode(antipode(p)), p)


def test_upper_pairs_are_kept_read_only_triu_indices():
    """One read-only array per size, the pairs of np.triu_indices(n, 1)
    bit for bit, in a cache of a fixed bound."""
    for n in (0, 1, 2, 7, 30, 100):
        pairs = upper_pairs(n)
        want = np.stack(np.triu_indices(n, 1), axis=1)
        assert pairs.dtype == want.dtype and np.array_equal(pairs, want)
        assert not pairs.flags.writeable
        assert upper_pairs(n) is pairs
    with pytest.raises(ValueError, match="read-only"):
        upper_pairs(7)[0, 0] = 1
    assert upper_pairs.cache_info().maxsize == 64


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


# signed zeros, subnormals, the normal extremes, huge and tiny products,
# and non-finite values, NaN of either sign among them
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.0, -1.5, 1e-160, 1e308, -1e308, math.inf, -math.inf,
                     math.nan, -math.nan])


def _special_rows(rng, shape):
    """Normal draws with about a third of the entries replaced by special
    values, so that rows mix both."""
    x = rng.normal(size=shape)
    pick = rng.random(shape) < 0.35
    x[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
    return x


def _same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestCross:
    """geom.cross against np.cross, byte for byte, on every shape the
    package passes."""

    @pytest.mark.parametrize("shapes", [
        ((40, 3), (40, 3)), ((40, 3), (3,)), ((13, 1, 3), (13, 3)),
        ((21, 1, 3), (21, 3)), ((6, 4, 3), (6, 4, 3)), ((5, 3), (1, 3))],
        ids=["E3xE3", "E3x3", "P13xP3", "P13xP3-21", "rings", "E3x13"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_arrays_match_np_cross(self, shapes, rng):
        for _ in range(20):
            a, b = (_special_rows(rng, s) for s in shapes)
            assert _same_bytes(cross(a, b), np.cross(a, b))
            assert _same_bytes(cross(b, a), np.cross(b, a))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_two_vectors_match_np_cross(self, rng):
        """Two 3-vectors: every special triple against a shuffled one,
        and mixed draws."""
        grid = np.array(np.meshgrid(_SPECIAL, _SPECIAL, _SPECIAL)
                        ).reshape(3, -1).T
        pairs = list(zip(grid, grid[rng.permutation(len(grid))]))
        pairs += list(zip(_special_rows(rng, (500, 3)),
                          _special_rows(rng, (500, 3))))
        for a, b in pairs:
            assert _same_bytes(cross(a, b), np.cross(a, b))

    def test_swapped_arguments_negate_exactly(self, rng):
        a, b = rng.normal(size=(2, 50, 3))
        assert _same_bytes(cross(b, a), -cross(a, b))


def _half_circle_outcome(P, M, tol=DEFAULT_TOL):
    """HalfCircle on each loose row in turn: the repaired copy of M, or
    the index, type and text of the first refusal."""
    out = np.array(M, dtype=float)
    for e in np.flatnonzero(loose_midpoints(P, M, tol)):
        try:
            out[e] = HalfCircle(P[e], M[e], tol).m
        except (ValueError, DegenerateConfigurationError) as exc:
            return int(e), type(exc), str(exc)
    return out


def _repair_outcome(P, M, tol=DEFAULT_TOL):
    try:
        return repair_midpoints(P, M, tol)
    except (ValueError, DegenerateConfigurationError) as exc:
        return exc.row, type(exc), str(exc)


def _witness_rows(rng, kinds):
    """Endpoints P and witnesses M, one row per kind."""
    P = rng.normal(size=(len(kinds), 3))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    M = rng.normal(size=P.shape)
    for e, kind in enumerate(kinds):
        p, m = P[e], M[e]
        tangent = unit(np.cross(p, m))
        if kind == "orthonormal":
            M[e] = tangent
        elif kind == "nearly":      # loose by a few ulps up to 1e-10
            M[e] = tangent * (1.0 + rng.normal() * 1e-12) \
                + p * rng.normal() * 10.0 ** rng.uniform(-16, -10)
        elif kind == "scaled":
            M[e] = m * 10.0 ** rng.uniform(-200, 200)
        elif kind == "zero":
            M[e] = 0.0
        elif kind == "parallel":
            M[e] = rng.normal() * p + rng.normal(size=3) * 1e-12
        elif kind == "non-unit endpoint":
            P[e] *= 1.0 + rng.uniform(-0.5, 0.5)
        elif kind == "non-finite":
            M[e, rng.integers(3)] = rng.choice([math.inf, math.nan])
    return P, M


class TestRepairMidpoints:
    KINDS = ("random", "orthonormal", "nearly", "scaled", "zero",
             "parallel", "non-unit endpoint", "non-finite")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_match_half_circle(self, rng):
        """Row for row HalfCircle(P[e], M[e]).m on loose rows, the same
        bits elsewhere, or the first refused row's own error."""
        refused = 0
        for trial in range(400):
            weights = np.ones(len(self.KINDS))
            weights[4:] = 0.02 if trial % 2 else 0.0
            kinds = rng.choice(self.KINDS, size=rng.integers(1, 12),
                               p=weights / weights.sum())
            P, M = _witness_rows(rng, kinds)
            want, got = _half_circle_outcome(P, M), _repair_outcome(P, M)
            if isinstance(want, tuple):
                refused += 1
                assert got == want
            else:
                assert _same_bytes(got, want)
        assert refused > 20

    @pytest.mark.parametrize("kind, error, text", [
        ("zero", ValueError, "cannot normalize a zero vector"),
        ("parallel", DegenerateConfigurationError,
         "midpoint witness is parallel to the endpoint"),
        ("non-unit endpoint", ValueError, "is not unit length"),
        ("non-finite", ValueError,
         "cannot normalize a vector of non-finite norm")])
    def test_first_refused_row_raises_its_own_error(self, kind, error, text,
                                                    rng):
        """Two refused rows after a good one: the first is reported."""
        P, M = _witness_rows(rng, ["random", kind, "zero"])
        with pytest.raises(error, match=text) as err:
            repair_midpoints(P, M)
        assert err.value.row == 1

    @pytest.mark.parametrize("kind", ("zero", "non-finite"))
    def test_endpoint_is_checked_before_its_witness(self, kind, rng):
        """A row with a non-unit endpoint and a witness unit() refuses
        reports the endpoint, as HalfCircle does."""
        P, M = _witness_rows(rng, ["random", kind])
        P[1] *= 1.5
        want = _half_circle_outcome(P, M)
        assert want[:2] == (1, ValueError) and "not unit length" in want[2]
        assert _repair_outcome(P, M) == want

    def test_returns_a_copy(self, rng):
        P, M = _witness_rows(rng, ["random", "orthonormal"])
        kept = M.copy()
        out = repair_midpoints(P, M)
        assert np.array_equal(M, kept) and out is not M
        assert _same_bytes(out[1], M[1]) and not np.array_equal(out[0], M[0])
        P, M = _witness_rows(rng, ["orthonormal", "orthonormal"])
        out = repair_midpoints(P, M)
        assert out is not M and _same_bytes(out, M)


RETIRED = ("GeodesicArc", "HalfCircle", "Curve", "curve_frame",
           "_curves_cross", "arcs_cross", "half_circle_crosses_arc",
           "half_circles_cross", "orient", "angular_distance")


def test_package_exports():
    """hilldraw.__all__ names each export once, and each resolves; the
    one-pair curves, now in tests/oracles.py, are neither exported nor
    defined in hilldraw.geom, whose only classes are its error and its
    tolerances."""
    assert len(set(hilldraw.__all__)) == len(hilldraw.__all__)
    assert all(hasattr(hilldraw, name) for name in hilldraw.__all__)
    for name in RETIRED:
        assert name not in hilldraw.__all__ and not hasattr(hilldraw, name)
        assert not hasattr(geom, name)
    assert {name for name, obj in vars(geom).items() if isinstance(obj, type)
            and obj.__module__ == geom.__name__} == {
        "DegenerateConfigurationError", "ToleranceConfig"}
