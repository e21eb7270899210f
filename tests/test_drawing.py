import json
import math

import numpy as np
import pytest

from hilldraw import drawing as drawing_mod
from hilldraw.construct import BlowupPlan, blowup, seed_single
from hilldraw.docio import drawing_to_doc
from hilldraw.drawing import (Drawing, DrawingKind, add_apex, add_random_apex,
                              build_cocktail_party,
                              complete_drawing_from_points,
                              config_from_drawing, count_crossings,
                              count_crossings_by_circle_pairs, delete_vertex,
                              double, extend_partial_matching,
                              extend_to_complete, make_assignment,
                              random_assignment, strength,
                              validate_drawing, verify)
from hilldraw.formulas import hill_number
from hilldraw.geom import (DEFAULT_TOL, DegenerateConfigurationError,
                           GeodesicArc, HalfCircle, unit)

from .conftest import half_circles, random_unit_points
from .oracles import brute_count

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def random_config(k, rng, tol=DEFAULT_TOL):
    while True:
        try:
            return double(random_unit_points(k, rng), tol)
        except DegenerateConfigurationError:
            continue


def hill_pairs(k, rng_seed=7, eps=0.2):
    rng = np.random.default_rng(rng_seed)
    return blowup(seed_single(), BlowupPlan(multiplicities=(k,), eps=eps),
                  rng)


class TestDouble:
    def test_orthonormal_frame(self):
        config = double([X, Y, Z])
        assert config.k == 3 and config.n == 6
        assert np.array_equal(config.doubled[3], -X)
        assert np.array_equal(config.doubled[4], -Y)
        assert np.array_equal(config.doubled[5], -Z)
        assert config.partner(1) == 4 and config.partner(4) == 1

    def test_coplanar_triple_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            double([X, Y, unit(X + Y)])

    def test_doubled_triples_inherit_general_position(self, rng):
        # negating one argument flips the determinant's sign only
        config = random_config(5, rng)
        d = config.doubled
        for _ in range(50):
            i, j, l = rng.choice(10, size=3, replace=False)
            if len({i % 5, j % 5, l % 5}) == 3:
                det = np.linalg.det(np.stack([d[i], d[j], d[l]]))
                assert abs(det) > DEFAULT_TOL.general_position

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            double([X, Y])


class TestBuildCocktailParty:
    def test_octahedral_drawing(self):
        d = build_cocktail_party(double([X, Y, Z]))
        assert len(d.uv) == 12
        assert d.kind is DrawingKind.COCKTAIL_PARTY
        assert count_crossings(d).total == 0

    def test_edge_count_k4(self, rng):
        d = build_cocktail_party(random_config(4, rng))
        assert len(d.uv) == 24

    def test_all_edges_shorter_arcs(self, rng):
        d = build_cocktail_party(random_config(4, rng))
        assert np.isnan(d.midpoints).all()
        assert all(GeodesicArc(*d.vertices[e]).length() < math.pi
                   for e in d.uv)


class TestCountCrossings:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_matching_free_count_formula(self, k, rng):
        for _ in range(10):
            d = build_cocktail_party(random_config(k, rng))
            expected = k * (k - 1) * (k - 2) * (k - 3) // 4
            assert count_crossings(d).total == expected

    @pytest.mark.parametrize("k", [11, 12])
    def test_matching_free_count_formula_larger(self, k, rng):
        for _ in range(3):
            d = build_cocktail_party(random_config(k, rng))
            expected = k * (k - 1) * (k - 2) * (k - 3) // 4
            assert count_crossings(d).total == expected
            assert count_crossings_by_circle_pairs(d) == expected

    def test_matches_brute_force_on_random_complete(self, rng):
        for n in (6, 9):
            pts = random_unit_points(n, rng)
            d = complete_drawing_from_points(pts)
            rep = count_crossings(d)
            total, pairs = brute_count(d)
            assert rep.total == total
            assert rep.pair_set() == frozenset(pairs)

    def test_matches_brute_force_with_half_circles(self):
        config, asg = hill_pairs(4)
        d = extend_to_complete(config, asg)
        rep = count_crossings(d)
        total, pairs = brute_count(d)
        assert rep.total == total == 18
        assert rep.pair_set() == frozenset(pairs)

    def test_report_invariants(self, rng):
        d = build_cocktail_party(random_config(5, rng))
        rep = count_crossings(d)
        assert rep.total == len(rep.pairs)
        assert sum(rep.per_edge) == 2 * rep.total
        assert sum(rep.per_vertex) == 4 * rep.total

    def test_workers_do_not_change_result(self):
        config, asg = hill_pairs(5)
        d = extend_to_complete(config, asg)
        serial = count_crossings(d, workers=1)
        parallel = count_crossings(d, workers=2)
        assert serial == parallel

    def test_no_counted_pair_is_adjacent_or_split(self, rng):
        config = random_config(5, rng)
        d = build_cocktail_party(config)
        rep = count_crossings(d)
        for i, j in rep.pairs.tolist():
            ends1, ends2 = set(d.uv[i].tolist()), set(d.uv[j].tolist())
            assert not ends1 & ends2
            assert not any(d.pairing.get(w) in ends2 for w in ends1)

    def test_antipodal_symmetry_involution(self, rng):
        """v -> -v maps the crossing-pair set of arc edges to itself."""
        config = random_config(5, rng)
        d = build_cocktail_party(config)
        rep = count_crossings(d)
        index_of = {frozenset(e): i for i, e in enumerate(d.uv.tolist())}

        def image(edge_idx):
            u, v = d.uv[edge_idx].tolist()
            return index_of[frozenset((d.pairing[u], d.pairing[v]))]

        pair_set = rep.pair_set()
        for i, j in rep.pairs.tolist():
            ii, jj = sorted((image(i), image(j)))
            assert (ii, jj) in pair_set


class TestAggregatedCounter:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_equals_pairwise_counter(self, k, rng):
        for _ in range(10):
            d = build_cocktail_party(random_config(k, rng))
            assert (count_crossings_by_circle_pairs(d)
                    == count_crossings(d).total)

    def test_rejects_other_kinds(self, rng):
        pts = random_unit_points(5, rng)
        with pytest.raises(ValueError):
            count_crossings_by_circle_pairs(complete_drawing_from_points(pts))


class TestStrength:
    def test_blowup_output_has_strength_zero(self):
        config, asg = hill_pairs(5)
        assert strength(config, asg) == 0

    def test_random_assignment_nonnegative(self, rng):
        config = random_config(4, rng)
        asg = random_assignment(config, rng)
        assert strength(config, asg) >= 0

    def test_flip_complements_pair_crossings(self, rng):
        """Replacing m by -m swaps the half for its complement, flipping
        every crossing with the other half-circles."""
        config, asg = hill_pairs(4)
        k = config.k
        halves = half_circles(config, asg)
        from hilldraw.geom import half_circles_cross
        flipped = HalfCircle(config.base[0], -asg.midpoints[0])
        for j in range(1, k):
            before = half_circles_cross(halves[0], halves[j])
            after = half_circles_cross(flipped, halves[j])
            assert before != after


class TestExtensions:
    def test_full_extension_counts(self):
        for k in (3, 4):
            config, asg = hill_pairs(k)
            d = extend_to_complete(config, asg)
            assert count_crossings(d).total == hill_number(2 * k)
            assert d.kind is DrawingKind.COMPLETE
            assert len(d.uv) == (2 * k) * (2 * k - 1) // 2

    def test_partial_subsets(self):
        config, asg = hill_pairs(4)
        # all pairs: the complete drawing
        d_all = extend_partial_matching(config, asg, range(4))
        assert d_all.kind is DrawingKind.COMPLETE
        assert count_crossings(d_all).total == 18
        # no pairs: the matching-free drawing
        d_none = extend_partial_matching(config, asg, [])
        assert d_none.kind is DrawingKind.COCKTAIL_PARTY
        assert count_crossings(d_none).total == 6
        # three pairs: one matching edge removed
        d3 = extend_partial_matching(config, asg, [0, 1, 2])
        assert d3.kind is DrawingKind.PARTIAL_MATCHING
        assert d3.matching_size() == 1
        assert count_crossings(d3).total == 15

    def test_strength_s_adds_s(self, rng):
        config, _ = hill_pairs(4)
        for _ in range(5):
            asg = random_assignment(config, rng)
            s = strength(config, asg)
            d = extend_to_complete(config, asg)
            assert count_crossings(d).total == hill_number(8) + s


class TestDeleteVertex:
    def test_every_vertex_gives_smaller_hill_count(self):
        config, asg = hill_pairs(4)
        d = extend_to_complete(config, asg)
        for v in range(8):
            out = delete_vertex(d, v)
            assert out.kind is DrawingKind.COMPLETE_MINUS_VERTEX
            assert out.n == 7
            assert count_crossings(out).total == hill_number(7)

    def test_per_vertex_is_hill_difference(self):
        config, asg = hill_pairs(4)
        d = extend_to_complete(config, asg)
        rep = count_crossings(d)
        for v in range(8):
            assert rep.per_vertex[v] == hill_number(8) - hill_number(7)

    def test_invalid_index(self):
        config, asg = hill_pairs(3)
        d = extend_to_complete(config, asg)
        with pytest.raises(ValueError):
            delete_vertex(d, 6)

    def test_requires_complete_drawing(self, rng):
        d = build_cocktail_party(random_config(3, rng))
        with pytest.raises(ValueError):
            delete_vertex(d, 0)

    def test_numpy_integer_index_recorded_as_int(self):
        d = extend_to_complete(*hill_pairs(3))
        out = delete_vertex(d, np.int64(2))
        assert type(out.provenance["deleted_vertex"]) is int
        doc = drawing_to_doc(out)
        assert json.dumps(doc) == json.dumps(drawing_to_doc(
            delete_vertex(d, 2)))

    @pytest.mark.parametrize("v", [1.5, 2.0, True, np.True_, "2", None])
    def test_non_integer_index_refused(self, v):
        d = extend_to_complete(*hill_pairs(3))
        with pytest.raises(TypeError) as err:
            delete_vertex(d, v)
        assert str(err.value) == f"vertex index must be an integer, got {v!r}"


class ScriptedNormal:
    """Stands in for a Generator whose normal() returns the given draws."""

    def __init__(self, draws):
        self._draws = iter(draws)
        self.draws = 0

    def normal(self, size):
        self.draws += 1
        return np.asarray(next(self._draws), dtype=float).reshape(size)


class TestAddApex:
    def test_random_apexes_reach_next_hill_number(self, rng):
        config, asg = hill_pairs(3)
        for _ in range(5):
            out = add_random_apex(config, asg, rng)
            assert out.kind is DrawingKind.COMPLETE_PLUS_APEX
            assert out.n == 7
            assert count_crossings(out).total == hill_number(7)

    def test_k4(self, rng):
        config, asg = hill_pairs(4)
        out = add_random_apex(config, asg, rng)
        assert count_crossings(out).total == hill_number(9) == 36

    def test_antipode_of_vertex_rejected(self):
        config, asg = hill_pairs(3)
        with pytest.raises(DegenerateConfigurationError):
            add_apex(config, asg, -config.base[0])

    def test_validates_once(self, rng, monkeypatch):
        config, asg = hill_pairs(4)
        calls = []
        validate = drawing_mod.validate_drawing

        def counted(d):
            calls.append(d.kind)
            validate(d)

        monkeypatch.setattr(drawing_mod, "validate_drawing", counted)
        out = add_random_apex(config, asg, rng)
        assert calls == [DrawingKind.COMPLETE_PLUS_APEX]
        assert count_crossings(out).total == hill_number(9)

    def test_invalid_full_drawing_still_refused(self, rng):
        """Half-circle 0 is turned through vertex 1: the full drawing fails
        validation, and so must every apex over it."""
        config = random_config(4, rng)
        p, w = config.base[0], config.base[1]
        mids = random_assignment(config, rng).midpoints.copy()
        mids[0] = unit(w - (w @ p) * p)
        asg = make_assignment(config, mids)
        message = r"vertex 1 lies on edge \(0,4\)"
        with pytest.raises(DegenerateConfigurationError, match=message):
            extend_to_complete(config, asg)
        q = unit(rng.normal(size=3))
        with pytest.raises(DegenerateConfigurationError, match=message):
            add_apex(config, asg, q)
        # the base drawing's own fault, on the first apex: none can mend it
        scripted = ScriptedNormal([rng.normal(size=3)
                                   for _ in range(drawing_mod._MAX_TRIES)])
        with pytest.raises(DegenerateConfigurationError, match=message):
            add_random_apex(config, asg, scripted)
        assert scripted.draws == 1

    def test_apex_refusals_resample(self, rng):
        """An apex on a base arc is refused and the next sample is tried."""
        config, asg = hill_pairs(3)
        d = extend_to_complete(config, asg)
        u, v = d.uv[~d.half][0]
        scripted = ScriptedNormal([d.vertices[u] + d.vertices[v],
                                   rng.normal(size=3)])
        out = add_random_apex(config, asg, scripted)
        assert scripted.draws == 2
        assert out.n == 7
        assert count_crossings(out).total == hill_number(7)


class TestVerify:
    def test_complete_drawing_passes(self):
        config, asg = hill_pairs(4)
        report = verify(extend_to_complete(config, asg))
        assert report.passed
        assert report.crossings.total == 18
        names = {c.name for c in report.checks}
        assert {"hill_total", "per_vertex_participation",
                "per_vertex_sum"} <= names

    def test_flipped_midpoint_fails_with_observed_count(self):
        config, asg = hill_pairs(4)
        mids = asg.midpoints.copy()
        mids[0] = -mids[0]
        corrupted = make_assignment(config, mids)
        report = verify(extend_to_complete(config, corrupted))
        assert not report.passed
        check = {c.name: c for c in report.checks}["hill_total"]
        assert check.predicted == 18
        # the flipped half now crosses each of the other k-1 halves
        assert check.observed == 18 + 3
        assert strength(config, corrupted) == 3

    def test_matching_free_dispatch(self, rng):
        d = build_cocktail_party(random_config(4, rng))
        report = verify(d)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "cocktail_party_total" in names
        assert "hill_total" not in names

    def test_partial_matching_dispatch(self):
        config, asg = hill_pairs(5)
        d = extend_partial_matching(config, asg, [0, 2])
        report = verify(d)
        assert report.passed
        assert any(c.name == "partial_matching_total" for c in report.checks)

    def test_report_document_shape(self):
        config, asg = hill_pairs(3)
        doc = verify(extend_to_complete(config, asg)).to_dict()
        assert doc["passed"] is True
        assert doc["kind"] == "complete"
        assert all({"name", "predicted", "observed", "passed"} <= set(c)
                   for c in doc["checks"])


class TestConfigFromDrawing:
    def test_roundtrip_through_drawing(self):
        config, asg = hill_pairs(4)
        d = extend_to_complete(config, asg)
        config2, asg2 = config_from_drawing(d)
        assert np.array_equal(config2.base, config.base)
        assert np.array_equal(asg2.midpoints, asg.midpoints)

    def test_general_position_not_tested_twice(self, monkeypatch):
        """Neither a validated drawing's base points nor a blowup's
        validated children go through double's general-position test."""
        calls = []
        test = drawing_mod.is_general_position
        monkeypatch.setattr(drawing_mod, "is_general_position",
                            lambda *args: calls.append(1) or test(*args))
        config, asg = hill_pairs(6)
        d = extend_to_complete(config, asg)
        config2, _ = config_from_drawing(d)
        assert calls == []
        assert np.array_equal(config2.base, config.base)
        # unvalidated, with a coplanar base triple: the stage refuses
        verts = d.vertices.copy()
        verts[2] = unit(verts[0] + verts[1])
        verts[8] = -verts[2]
        bad = Drawing(vertices=verts, kind=d.kind, uv=d.uv,
                      midpoints=d.midpoints, pairing=d.pairing)
        with pytest.raises(DegenerateConfigurationError,
                           match="base points are not in general position"):
            config_from_drawing(bad)
        assert calls == [1]

    def test_rejects_random_complete(self, rng):
        pts = random_unit_points(6, rng)
        with pytest.raises(ValueError):
            config_from_drawing(complete_drawing_from_points(pts))


class TestPinnedRefusals:
    """Refusal texts of the apex checks and of the pairing check, each
    with its first offender."""

    def test_apex_coplanar_with_two_vertices(self):
        config, asg = hill_pairs(4)
        v = config.doubled
        with pytest.raises(DegenerateConfigurationError) as err:
            add_apex(config, asg, unit(v[1] + 2.0 * v[3]))
        assert str(err.value) == ("apex is coplanar with vertices 1,3; "
                                  "resample the apex")

    def test_apex_on_a_half_circle_midpoint(self):
        """The apex at half-circle 2's own midpoint witness: a repeated
        point, so the orientation guard refuses and the exact checks
        decide."""
        config, asg = hill_pairs(4)
        with pytest.raises(DegenerateConfigurationError) as err:
            add_apex(config, asg, asg.midpoints[2])
        assert str(err.value) == ("apex lies on edge (2,6); resample the "
                                  "apex")

    @staticmethod
    def _reversed(d, vertices):
        """d on other vertices, unvalidated, its pairing in reversed key
        order: 7 -> 3, 6 -> 2, 5 -> 1, 4 -> 0, 3 -> 7, ..."""
        return Drawing(vertices=vertices, kind=d.kind, uv=d.uv,
                       midpoints=d.midpoints,
                       pairing=dict(reversed(list(d.pairing.items()))))

    def test_pairing_not_symmetric(self):
        """Entry 5 -> 1 is the first bad one in dict order; vertex 0 is
        moved off -vertex 4 as well, a later fault."""
        d = extend_to_complete(*hill_pairs(4))
        verts = d.vertices.copy()
        verts[0, 0] = np.nextafter(verts[0, 0], 2.0)
        bad = self._reversed(d, verts)
        bad.pairing[1] = 4
        with pytest.raises(ValueError) as err:
            validate_drawing(bad)
        assert str(err.value) == "pairing map is not symmetric"

    def test_paired_vertices_not_exact_antipodes(self):
        """Vertex 2 is moved by one ulp: entry 6 -> 2 is the first bad one
        in dict order, before the asymmetric entries 4 -> 0 and 0 -> 5."""
        d = extend_to_complete(*hill_pairs(4))
        verts = d.vertices.copy()
        verts[2, 1] = np.nextafter(verts[2, 1], 2.0)
        bad = self._reversed(d, verts)
        bad.pairing[0] = 5
        with pytest.raises(ValueError) as err:
            validate_drawing(bad)
        assert str(err.value) == ("paired vertices 6,2 are not exact "
                                  "antipodes")

    @pytest.mark.parametrize("pairing, entry", [
        ({0: -3, -3: 0, 1: 4, 4: 1, 2: 5, 5: 2}, "0 -> -3"),
        ({1: 4, 4: 1, 0: 9, 9: 0, 2: 5, 5: 2}, "0 -> 9"),
        ({0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2, 6: 7}, "6 -> 7"),
        ({0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: -1}, "5 -> -1")],
        ids=["wraps-to-antipode", "wraps-past-n", "extra-key", "value"])
    def test_pairing_index_outside_the_vertices(self, pairing, entry):
        """An index outside [0, n) is refused before the symmetry test,
        also where it wraps onto the exact antipode (-3 is vertex 3)."""
        d = build_cocktail_party(double([X, Y, Z]))
        bad = Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                      midpoints=d.midpoints, pairing=pairing)
        with pytest.raises(ValueError) as err:
            validate_drawing(bad)
        assert str(err.value) == (f"pairing entry {entry} names a vertex "
                                  "outside [0, 6)")
