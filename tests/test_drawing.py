import json
import math

import numpy as np
import pytest

from hilldraw import cli
from hilldraw import drawing as drawing_mod
from hilldraw.construct import BlowupPlan, blowup, seed_single
from hilldraw.docio import DocumentError, doc_to_drawing, drawing_to_doc
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
from hilldraw.geom import DEFAULT_TOL, DegenerateConfigurationError, unit

from .conftest import half_circles, random_unit_points
from .oracles import GeodesicArc, HalfCircle, brute_count, half_circles_cross

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


def relabelled(d, kind, drop=(), pairing=None):
    """d's arrays in a new, unvalidated Drawing of the given kind, without
    the edges in drop (vertex pairs, either way round), with d's pairing
    or the one given."""
    keep = np.ones(len(d.uv), dtype=bool)
    for e in drop:
        keep &= ~(np.sort(d.uv, axis=1) == sorted(e)).all(axis=1)
    return Drawing(vertices=d.vertices, kind=kind, uv=d.uv[keep],
                   midpoints=d.midpoints[keep],
                   pairing=dict(d.pairing if pairing is None else pairing))


def census_gap(seed=1):
    """The k = 3 complete drawing of a random assignment without its arc
    (0, 1), as a partial matching: 14 edges fit one missing couple, but
    the missing pair is no couple, so no closed form applies."""
    rng = np.random.default_rng(seed)
    config = random_config(3, rng)
    d = extend_to_complete(config, random_assignment(config, rng))
    return relabelled(d, DrawingKind.PARTIAL_MATCHING, drop=[(0, 1)])


CENSUS_GAP = ("partial-matching drawing on 6 vertices must join every "
              "vertex pair that is no couple")


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


class TestAssignments:
    def test_midpoint_on_a_vertex_is_refused(self):
        with pytest.raises(DegenerateConfigurationError) as err:
            make_assignment(double([X, Y, Z]), [Y, Z, X])
        assert str(err.value) == ("midpoint 0 coincides with vertex 1 "
                                  "within tolerance")

    def test_random_assignment_gives_up(self):
        scripted = ScriptedNormal([[Y, Z, X]] * drawing_mod._MAX_TRIES)
        with pytest.raises(DegenerateConfigurationError) as err:
            random_assignment(double([X, Y, Z]), scripted)
        assert str(err.value) == "could not sample a valid midpoint assignment"
        assert scripted.draws == drawing_mod._MAX_TRIES


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


    def test_no_apex_in_64_samples(self):
        """Every sample is vertex 0, coplanar with any two vertices."""
        config, asg = hill_pairs(3)
        scripted = ScriptedNormal([config.base[0]] * drawing_mod._MAX_TRIES)
        with pytest.raises(DegenerateConfigurationError) as err:
            add_random_apex(config, asg, scripted)
        assert str(err.value) == "no valid apex found in 64 samples"
        assert scripted.draws == drawing_mod._MAX_TRIES


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

    @pytest.mark.parametrize("pairing, drop, text", [
        ({0: 3, 3: 0, 1: 4, 4: 1}, [], "pairing does not cover all vertices"),
        (None, [(0, 3)], "drawing lacks a matching half-circle per pair")],
        ids=["pairing", "half-circle"])
    def test_structure_refusals(self, pairing, drop, text):
        d = extend_to_complete(*hill_pairs(3))
        bad = relabelled(d, DrawingKind.COMPLETE, drop=drop, pairing=pairing)
        with pytest.raises(ValueError) as err:
            config_from_drawing(bad)
        assert str(err.value) == text

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

    @pytest.mark.parametrize("pairing, entry", [
        ({0: 3.0, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2}, "0 -> 3.0"),
        ({3.0: 0, 0: 3, 1: 4, 4: 1, 2: 5, 5: 2}, "3.0 -> 0"),
        ({0: 3, 3: 0, 1: True, 4: 1, 2: 5, 5: 2}, "1 -> True"),
        ({0: 3, 3: 0, 1: 4, 4: 1, "2": 5, 5: 2}, "'2' -> 5")],
        ids=["float-value", "float-key", "bool", "str"])
    def test_pairing_entries_are_integers(self, pairing, entry):
        """A float, bool or str entry once validated (3.0 and '3' as 3) and
        then failed its JSON round trip, or raised a bare IndexError."""
        d = build_cocktail_party(double([X, Y, Z]))
        bad = Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                      midpoints=d.midpoints, pairing=pairing)
        with pytest.raises(ValueError) as err:
            validate_drawing(bad)
        assert str(err.value) == (f"pairing entry {entry} is not a pair "
                                  "of integers")

    def test_numpy_integer_pairing_round_trips(self):
        """np.int64 keys and values are stored as ints: the drawing
        validates, counts and writes JSON, and parses back equal."""
        d = build_cocktail_party(double([X, Y, Z]))
        pairing = {np.int64(a): np.int32(b) for a, b in d.pairing.items()}
        e = Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                    midpoints=d.midpoints, pairing=pairing)
        assert all(type(x) is int for x in (*e.pairing, *e.pairing.values()))
        validate_drawing(e)
        assert count_crossings(e) == count_crossings(d)
        back = doc_to_drawing(json.loads(json.dumps(drawing_to_doc(e))))
        assert back.pairing == d.pairing

    @staticmethod
    def _cases(test):
        """The (pairing, entry) cases of a parametrized test above."""
        return test.pytestmark[0].args[1]

    @pytest.mark.parametrize("pairing, text", [
        *((pairing, f"pairing entry {entry} names a vertex outside [0, 6)")
          for pairing, entry
          in _cases(test_pairing_index_outside_the_vertices)),
        *((pairing, f"pairing entry {entry} is not a pair of integers")
          for pairing, entry in _cases(test_pairing_entries_are_integers))])
    def test_count_crossings_refuses_the_pairing(self, pairing, text):
        """count_crossings raises validate_drawing's text: no partner
        array, and so neither the signs nor the sweep, can be formed."""
        d = build_cocktail_party(double([X, Y, Z]))
        bad = Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                      midpoints=d.midpoints, pairing=pairing)
        for run in (count_crossings, validate_drawing):
            with pytest.raises(ValueError) as err:
                run(bad)
            assert str(err.value) == text

    @pytest.mark.parametrize("pairing, entry", [
        ({0: 9, 9: 0}, "0 -> 9"), ({0: -1, -1: 0}, "0 -> -1")],
        ids=["past-n", "negative"])
    def test_count_crossings_on_eight_vertices(self, pairing, entry):
        """Once a bare IndexError, and -1 was counted as vertex 7."""
        d = build_cocktail_party(random_config(4, np.random.default_rng(3)))
        bad = Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                      midpoints=d.midpoints, pairing=pairing)
        with pytest.raises(ValueError) as err:
            count_crossings(bad)
        assert str(err.value) == (f"pairing entry {entry} names a vertex "
                                  "outside [0, 8)")


def _k3(seed=1):
    rng = np.random.default_rng(seed)
    config = random_config(3, rng)
    return config, random_assignment(config, rng)


def _census_refusals():
    """(drawing, refusal text) by case, all on one k = 3 configuration."""
    config, asg = _k3()
    party, full = build_cocktail_party(config), extend_to_complete(config,
                                                                   asg)
    kind = DrawingKind
    cocktail = ("cocktail-party drawing on 6 vertices must have 12 arc "
                "edges and a full pairing")
    missing = "drawing must contain all 15 edges, got 14"
    return {
        "cocktail-lacks-an-arc": (relabelled(
            party, kind.COCKTAIL_PARTY, drop=[(0, 1)]), cocktail),
        "cocktail-with-a-half-circle": (relabelled(
            extend_partial_matching(config, asg, [1]),
            kind.COCKTAIL_PARTY), cocktail),
        "cocktail-pairing-not-full": (relabelled(
            party, kind.COCKTAIL_PARTY, pairing={1: 4, 4: 1, 2: 5, 5: 2}),
            cocktail),
        "partial-pairing-not-full": (relabelled(
            extend_partial_matching(config, asg, [0]),
            kind.PARTIAL_MATCHING, pairing={0: 3, 3: 0, 1: 4, 4: 1}),
            "partial-matching drawing needs a full pairing"),
        "partial-edge-count": (relabelled(
            party, kind.PARTIAL_MATCHING, drop=[(0, 1)]),
            "edge count 11 matches no valid matching size"),
        "partial-lacks-an-arc": (census_gap(), CENSUS_GAP),
        "complete-lacks-an-arc": (relabelled(
            full, kind.COMPLETE, drop=[(0, 1)]), f"complete {missing}"),
        "complete-lacks-a-half-circle": (relabelled(
            full, kind.COMPLETE, drop=[(0, 3)]), f"complete {missing}"),
        "vertex-deleted": (relabelled(
            full, kind.COMPLETE_MINUS_VERTEX, drop=[(0, 1)]),
            f"complete_minus_vertex {missing}"),
        "apex": (relabelled(full, kind.COMPLETE_PLUS_APEX, drop=[(1, 4)]),
                 f"complete_plus_apex {missing}"),
    }


class TestEdgeCensus:
    """One census rule for every kind: every vertex pair that is no
    couple is an edge, and the kind fixes which couples carry
    half-circles.  Each refusal but the census gap keeps its text."""

    @pytest.mark.parametrize("case", list(_census_refusals()))
    def test_refusal_texts(self, case):
        d, text = _census_refusals()[case]
        with pytest.raises(ValueError) as err:
            validate_drawing(d)
        assert str(err.value) == text

    def test_each_kind_carries_its_couples(self):
        """Partial matchings take any couples, cocktail parties none and
        complete drawings all."""
        config, asg = _k3()
        for chosen in ([], [0], [1, 2], [0, 1, 2]):
            validate_drawing(relabelled(extend_partial_matching(
                config, asg, chosen), DrawingKind.PARTIAL_MATCHING))
        validate_drawing(build_cocktail_party(config))
        validate_drawing(extend_to_complete(config, asg))

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_census_gap_is_refused(self, seed, tmp_path, capsys):
        """The gap once validated and loaded, and verify then reported
        partial_matching_total as failed (predicted 2, observed 3 or
        6): now validation, the document reader and the verify command
        all refuse it, and no closed form is compared."""
        bad = census_gap(seed)
        assert drawing_mod._sign_counts(bad, bad.tol) is None
        with pytest.raises(ValueError) as err:
            validate_drawing(bad)
        assert str(err.value) == CENSUS_GAP
        doc = json.loads(json.dumps(drawing_to_doc(bad)))
        with pytest.raises(DocumentError) as err:
            doc_to_drawing(doc)
        assert str(err.value) == f"drawing invalid: {CENSUS_GAP}"
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", str(path)]) == cli.ERROR_EXIT
        out, err = capsys.readouterr()
        assert out == ""
        assert f"drawing invalid: {CENSUS_GAP}" in err
