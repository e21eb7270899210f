"""The batched kernels: tiled sweep, orientation-sign counter, half-circle
checks, circle-pair counter, bulk arc frames and validation.

Shrinking the tile constant makes tiles split rows into column chunks and
group short rows into blocks; counts, pair lists and the reported
offenders must not depend on it.
"""

import json
import warnings
from itertools import combinations, repeat

import numpy as np
import pytest

from hilldraw import drawing as drawing_mod
from hilldraw import geom
from hilldraw import montecarlo as montecarlo_mod
from hilldraw.construct import (ConstructionError, default_plan_chain,
                                perturb, recursive_construct,
                                validate_arrangement)
from hilldraw.docio import (DocumentError, doc_to_drawing, drawing_to_doc,
                            report_to_doc)
from hilldraw.drawing import (CrossingReport, Drawing, DrawingKind,
                              add_apex, add_random_apex,
                              build_cocktail_party,
                              complete_drawing_from_points,
                              config_from_drawing, count_crossings,
                              count_crossings_by_circle_pairs, delete_vertex,
                              double, extend_partial_matching,
                              extend_to_complete, make_assignment,
                              random_assignment, strength, validate_drawing,
                              verify)
from hilldraw.geom import (DEFAULT_TOL, DegenerateConfigurationError,
                           ToleranceConfig, arc_frames, require_arc_rows,
                           unit)
from hilldraw.montecarlo import DistributionSpec, SamplingError, sample_points
from hilldraw.svg import export_svg

from .conftest import (SEEDS, half_circles, hill, midpoint_near_arc,
                       random_unit_points, splits)
from .oracles import (GeodesicArc, apex_checks_reference,
                      block_dets_reference, brute_count,
                      circle_pair_count_reference, coplanar_reference,
                      half_circles_cross, points_usable_reference)
from .test_drawing import CENSUS_GAP, census_gap, hill_pairs, random_config

SMALL_TILES = (5, 64)


def _drawings():
    rng = np.random.default_rng(515)
    out = [complete_drawing_from_points(random_unit_points(9, rng))]
    out += [build_cocktail_party(random_config(k, rng)) for k in range(3, 11)]
    config, asg = hill_pairs(5)
    out.append(extend_partial_matching(config, asg, [0, 2]))
    config, asg = hill_pairs(4)
    out.append(delete_vertex(extend_to_complete(config, asg), 3))
    out.append(add_random_apex(config, asg, rng))
    return out


@pytest.fixture(scope="module")
def drawings_and_reports():
    drawings = _drawings()
    return drawings, [count_crossings(d) for d in drawings]


@pytest.mark.parametrize("tile", SMALL_TILES)
def test_small_tiles_match_brute_force_and_default(tile, monkeypatch,
                                                   drawings_and_reports):
    drawings, reports = drawings_and_reports
    monkeypatch.setattr(geom, "_TILE", tile)
    for d, default in zip(drawings, reports):
        rep = count_crossings(d)
        assert rep == default
        total, pairs = brute_count(d)
        assert rep.total == total
        assert rep.pair_set() == frozenset(pairs)
    # the builders' validation runs on small tiles as well
    assert [count_crossings(d) for d in _drawings()] == reports


@pytest.mark.parametrize("tile", (SMALL_TILES[0], geom._TILE))
def test_workers_agree_with_serial(tile, monkeypatch):
    monkeypatch.setattr(geom, "_TILE", tile)
    config, asg = hill_pairs(8)
    d = extend_to_complete(config, asg)
    assert len(d.uv) >= 64        # smaller drawings never reach the pool
    assert count_crossings(d, workers=2) == count_crossings(d)


def test_triangle_tiles_cover_pairs_in_order(monkeypatch):
    for tile in (1, 3, 7, 100):
        monkeypatch.setattr(geom, "_TILE", tile)
        for size in range(0, 12):
            pairs = [(i, j) for r0, r1, c0, c1 in geom.triangle_tiles(size)
                     for i in range(r0, r1) for j in range(c0, c1) if j > i]
            assert pairs == [(i, j) for i in range(size)
                             for j in range(i + 1, size)]
            assert all((r1 - r0) * (c1 - c0) <= tile
                       for r0, r1, c0, c1 in geom.triangle_tiles(size))


def _degenerate_drawing(same_circle_row):
    """A hand-built drawing with refused pairs past the first small tile.

    Edges 0..27 are the complete drawing on 8 random points; edge 28 runs
    from vertex 2 towards vertex 0, so its great circle passes through an
    endpoint of edge 0 (dead zone); edges 29..31 are fillers; edge 32, when
    same_circle_row is given, lies on the great circle of that edge.
    """
    rng = np.random.default_rng(8)
    base = complete_drawing_from_points(random_unit_points(8, rng))
    pts = list(base.vertices)
    uv = base.uv.tolist()
    pts.append(unit(pts[2] + pts[0]))
    uv.append((2, 8))
    for v in range(9, 15, 2):
        pts += list(random_unit_points(2, rng))
        uv.append((v, v + 1))
    if same_circle_row is not None:
        a, b = (pts[i] for i in uv[same_circle_row])
        pts += [unit(-a + 0.2 * b), unit(-b + 0.3 * a)]
        uv.append((15, 16))
    return Drawing(vertices=np.array(pts), kind=DrawingKind.COMPLETE, uv=uv,
                   midpoints=np.full((len(uv), 3), np.nan))


@pytest.mark.parametrize("tile", (4, geom._TILE))
@pytest.mark.parametrize("same_circle_row, message", [
    (None, r"edge pair \(0,28\) falls in the sign dead zone"),
    # same row: the same-circle pair wins, though it lies in a later chunk
    (0, "edges 0 and 32 lie on the same great circle"),
    # later row: the earlier row's dead-zone pair wins
    (1, r"edge pair \(0,28\) falls in the sign dead zone"),
])
def test_first_refused_pair_is_reported(tile, same_circle_row, message,
                                        monkeypatch):
    monkeypatch.setattr(geom, "_TILE", tile)
    d = _degenerate_drawing(same_circle_row)
    with pytest.raises(DegenerateConfigurationError, match=message):
        count_crossings(d)


def _sweep_report(d, tol=None):
    """The report of the pair sweep alone; each crossing pair adds one to
    its two edges and its four endpoints."""
    tol = tol or d.tol
    packed = drawing_mod._pack_drawing(d)
    pairs = drawing_mod._sweep(packed, geom.triangle_tiles(len(packed[0])),
                               tol.sign)
    per_edge = np.bincount(pairs.ravel(), minlength=len(d.uv))
    per_vertex = np.bincount(packed[3][pairs].ravel(), minlength=d.n)
    return CrossingReport(len(pairs), per_edge, per_vertex, pairs)


def _counted(monkeypatch, name):
    """A list that gains an entry at each call of drawing_mod.<name>."""
    calls = []
    func = getattr(drawing_mod, name)

    def counted(*args):
        calls.append(1)
        return func(*args)

    monkeypatch.setattr(drawing_mod, name, counted)
    return calls


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts the calls of the pair sweep."""
    return _counted(monkeypatch, "_sweep")


def _cap(theta):
    spec = DistributionSpec(kind="cap", theta=theta)
    return lambda rng, size: spec.draw(rng, size)


DISTRIBUTIONS = {
    "uniform": DistributionSpec(),
    "cap": DistributionSpec(kind="cap", theta=0.3),
    "symmetrized": DistributionSpec(kind="antipodal_symmetrized",
                                    base=_cap(0.5)),
}


class TestPointDrawingCounter:
    """Point drawings are counted from orientation signs; the reports must
    be the sweep's, and so must the error whenever the counter declines."""

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_reports_equal_the_sweep(self, dist, sweep_calls):
        rng = np.random.default_rng([41, len(dist)])
        # past 64 points, bitset rows span several 64-bit words
        for n in (*range(4, 12), 18, 25, 39, 60, 63, 64, 65, 100):
            pts = sample_points(n, DISTRIBUTIONS[dist], rng)
            d = complete_drawing_from_points(pts)
            calls = len(sweep_calls)
            rep = count_crossings(d)
            assert len(sweep_calls) == calls      # counted without a sweep
            assert rep == _sweep_report(d)
            assert rep.per_vertex.sum() == 4 * rep.total
            if n <= 11:
                total, pairs = brute_count(d)
                assert rep.total == total
                assert rep.pair_set() == frozenset(pairs)

    def test_pairs_are_swept_once_on_first_read(self, sweep_calls):
        pts = sample_points(30, DistributionSpec(), np.random.default_rng(5))
        d = complete_drawing_from_points(pts)
        rep = count_crossings(d)
        assert sweep_calls == []
        first = rep.pairs
        calls = len(sweep_calls)
        assert calls >= 1
        assert rep.pairs is first and len(sweep_calls) == calls
        assert first.dtype == np.int64 and first.shape == (rep.total, 2)
        swept = _sweep_report(d)
        doc = report_to_doc(verify(d), include_pairs=True)
        assert doc["total"] == swept.total
        assert doc["crossing_pairs"] == swept.pairs.tolist()

    def test_pairs_use_the_report_workers(self):
        pts = sample_points(16, DistributionSpec(), np.random.default_rng(6))
        d = complete_drawing_from_points(pts)
        assert len(d.uv) >= 64        # smaller drawings never reach the pool
        assert count_crossings(d, workers=2) == _sweep_report(d)

    def test_shuffled_document(self, rng, sweep_calls):
        pts = sample_points(24, DistributionSpec(), rng)
        doc = drawing_to_doc(complete_drawing_from_points(pts))
        order = rng.permutation(len(doc["edges"]))
        doc["edges"] = [doc["edges"][i] for i in order]
        for rec in doc["edges"][::3]:
            rec["u"], rec["v"] = rec["v"], rec["u"]
        d = doc_to_drawing(json.loads(json.dumps(doc)))
        assert d.uv[:2].tolist() != [[0, 1], [0, 2]]
        rep = count_crossings(d)
        assert sweep_calls == []            # counted from signs
        assert rep == _sweep_report(d)

    @pytest.mark.parametrize("det", (0.5e-9, 1e-14))
    def test_triple_inside_general_position_falls_back(self, det,
                                                       sweep_calls):
        """Vertex 5 sits on the great circle of vertices 0 and 1 up to a
        determinant of ``det``, outside their arc; the counter declines and
        the sweep decides, with its counts or its refusal."""
        rng = np.random.default_rng(12)
        pts = sample_points(12, DistributionSpec(), rng)
        a, b = pts[0], pts[1]
        pole = unit(np.cross(a, b))
        x = unit(-(a + b))
        pts[5] = unit(x + det / np.linalg.norm(np.cross(a, b)) * pole)
        assert 0.0 < abs(np.linalg.det(pts[[0, 1, 5]])) <= 1e-9
        d = complete_drawing_from_points(pts)
        try:
            want = _sweep_report(d)
        except DegenerateConfigurationError as exc:
            with pytest.raises(DegenerateConfigurationError) as err:
                count_crossings(d)
            assert str(err.value) == str(exc)
            assert det < 1e-12
        else:
            calls = len(sweep_calls)
            rep = count_crossings(d)
            assert len(sweep_calls) > calls     # the sweep did the counting
            assert rep == want

    @pytest.mark.parametrize("floor", (drawing_mod._DET_FLOOR, 0.0))
    def test_repeated_index_triples_masked_by_index(self, floor, monkeypatch,
                                                    sweep_calls):
        """Triples like det(a,b,a) come out near 1e-16, not 0: above a
        general-position margin of 1e-17 they would read as signs unless
        they are masked by their indices."""
        monkeypatch.setattr(drawing_mod, "_DET_FLOOR", floor)
        tol = ToleranceConfig(sign=1e-18, general_position=1e-17)
        pts = sample_points(30, DistributionSpec(), np.random.default_rng(3),
                            tol)
        cross = np.cross(pts[:, None], pts)
        assert (np.abs(np.einsum("abk,ak->ab", cross, pts)) > 1e-17).any()
        d = complete_drawing_from_points(pts, tol)
        rep = count_crossings(d)
        assert sweep_calls == []
        assert rep == _sweep_report(d)


def _antipodal_drawings():
    """Hill complete drawings from every seed, all of their vertex
    deletions for k <= 8 and one beyond, and two apexes each; at k = 22
    and 24 they hold 64 to 73 points, two bitset words; cocktail drawings;
    partial drawings whose random assignments have strength > 0."""
    for seed in SEEDS:
        for k in (*range(3, 9), 12, 16, 22, 24):
            if k < len(splits(seed, k)):
                continue
            config, asg = hill(seed, k, [len(seed), k])
            d = extend_to_complete(config, asg)
            yield d
            vertices = range(d.n) if k <= 8 else (k,)
            yield from (delete_vertex(d, v) for v in vertices)
            rng = np.random.default_rng([k, len(seed)])
            yield from (add_random_apex(config, asg, rng) for _ in range(2))
    rng = np.random.default_rng(77)
    for k in range(3, 11):
        config = random_config(k, rng)
        yield build_cocktail_party(config)
        asg = random_assignment(config, rng)
        while strength(config, asg) == 0:
            asg = random_assignment(config, rng)
        for t in (1, k - 1):
            chosen = rng.choice(k, size=k - t, replace=False)
            yield extend_partial_matching(config, asg, chosen)
        yield extend_to_complete(config, asg)


class TestSignCounter:
    """Drawings with antipodal couples and half-circles are counted from
    the orientation signs of their vertices and midpoints, like point
    drawings; the reports must be the sweep's, and so must the error
    whenever the guard sends a drawing to the sweep."""

    def test_reports_equal_the_sweep(self, sweep_calls):
        kinds = set()
        for d in _antipodal_drawings():
            sweep_calls.clear()                   # constructions sweep too
            rep = count_crossings(d)
            assert sweep_calls == []              # counted without a sweep
            assert rep == _sweep_report(d)
            kinds.add(d.kind)
            if len(d.uv) <= 70:
                total, pairs = brute_count(d)
                assert rep.total == total
                assert rep.pair_set() == frozenset(pairs)
        assert kinds == set(DrawingKind)

    def test_verify_sweeps_only_when_pairs_are_read(self, sweep_calls):
        config, asg = hill("two", 10, [3, 10])
        d = extend_to_complete(config, asg)
        sweep_calls.clear()
        report = verify(d)
        assert report.passed and sweep_calls == []
        report.crossings.pairs
        assert sweep_calls != []

    def test_pairs_use_the_report_workers(self):
        config, asg = hill("four", 8, [4, 8])
        d = add_random_apex(config, asg, np.random.default_rng(4))
        assert count_crossings(d, workers=2) == _sweep_report(d)

    @pytest.mark.parametrize("det", (5e-10, 1e-14, 0.0))
    def test_midpoint_on_an_arc_is_counted_from_signs(self, det,
                                                      sweep_calls):
        """Midpoint 2 sits on the interior of arc ab up to a determinant
        of ``det``.  No crossing decision reads det(a, b, m), so the guard
        passes, and the signs count the drawing as the sweep does."""
        rng = np.random.default_rng(31)
        config = random_config(6, rng)
        d, (a, b) = midpoint_near_arc(
            config, random_assignment(config, rng), 2, det)
        m = d.midpoints[(d.uv == (2, 8)).all(axis=1)][0]
        assert abs(np.linalg.det(d.vertices[[a, b]].tolist() + [m])) \
            <= max(det * 1.01, 1e-16)
        want = _sweep_report(d)
        assert want.per_edge[(d.uv == (2, 8)).all(axis=1)][0] > 0
        for fresh in (d, _fresh(d)):
            sweep_calls.clear()
            rep = count_crossings(fresh)
            assert sweep_calls == []            # counted from signs
            assert rep == want

    @pytest.mark.parametrize("floor", (drawing_mod._DET_FLOOR, 0.0))
    def test_couple_triples_masked_by_index(self, floor, monkeypatch,
                                            sweep_calls):
        """Triples like det(a,b,-a) come out near 1e-17, not 0: above a
        general-position margin of 1e-17 they would read as signs unless
        they are masked by their indices."""
        monkeypatch.setattr(drawing_mod, "_DET_FLOOR", floor)
        tol = ToleranceConfig(sign=1e-18, general_position=1e-17)
        rng = np.random.default_rng(9)
        config = random_config(12, rng, tol)
        d = extend_partial_matching(config, random_assignment(config, rng,
                                                              tol),
                                    range(6), tol)
        pts = d.vertices
        couple = np.einsum("abk,ak->ab", np.cross(pts[:, None], pts),
                           pts[[config.partner(i) for i in range(d.n)]])
        assert (np.abs(couple) > 1e-17).any()
        sweep_calls.clear()
        rep = count_crossings(d)
        assert sweep_calls == []
        assert rep == _sweep_report(d)

    def test_invalid_drawings_go_to_the_sweep(self, sweep_calls):
        """A repeated edge, a half-circle whose far end is not the exact
        antipode, an arc on a couple paired one way only, or a missing
        vertex pair that is no couple leaves the counting to the sweep."""
        config, asg = hill("single", 4, [6, 4])
        d = extend_to_complete(config, asg)
        twice = Drawing(vertices=d.vertices, kind=d.kind,
                        uv=np.concatenate([d.uv, d.uv[:1]]),
                        midpoints=np.concatenate([d.midpoints,
                                                  d.midpoints[:1]]),
                        pairing=d.pairing)
        vertices = d.vertices.copy()
        vertices[4] = unit(vertices[4] + 1e-9)
        moved = Drawing(vertices=vertices, kind=d.kind, uv=d.uv,
                        midpoints=d.midpoints, pairing=d.pairing)
        points = _points_drawing(random_unit_points(
            8, np.random.default_rng(4)))
        # the arc (0, 4) joins the couple 4 -> 0: the signs would mask it
        one_way = Drawing(vertices=points.vertices, kind=points.kind,
                          uv=points.uv, midpoints=points.midpoints,
                          pairing={4: 0})
        missing = Drawing(vertices=points.vertices, kind=points.kind,
                          uv=points.uv[1:], midpoints=points.midpoints[1:])
        for bad in (twice, moved, one_way, missing):
            calls = len(sweep_calls)
            assert count_crossings(bad) == _sweep_report(bad)
            assert len(sweep_calls) > calls


# Streams [seed, 0, op] of the benchmark's generate | verify | mutate op,
# k = 5 + op % 20, in whose drawings a midpoint witness m lies within the
# guard's margin of some vertex pair's great circle: det(m, c, d), which
# no crossing decision reads.
WITNESS_STREAMS = ((7, 59), (1, 155), (1, 195), (1, 408), (1, 478),
                   (0, 12), (0, 266), (0, 278), (0, 335))


def _pipeline_drawings(seed, op):
    """The op's complete, vertex-deleted and apex drawings: Hill pairs of
    k couples from the single, two or four seed (by k), a random vertex
    deleted and a random apex added, all drawn from the op's stream."""
    k = 5 + op % 20
    rng = np.random.default_rng([seed, 0, op])
    config, asg = hill(("single", "two", "four")[(k - 5) % 3], k, rng)
    d = extend_to_complete(config, asg)
    minus = delete_vertex(d, int(rng.integers(d.n)))
    return d, minus, add_random_apex(*config_from_drawing(d), rng)


@pytest.mark.parametrize("seed, op", WITNESS_STREAMS)
def test_witness_streams_are_counted_from_signs(seed, op, sweep_calls):
    for d in _pipeline_drawings(seed, op):
        sweep_calls.clear()
        rep = count_crossings(d)
        assert sweep_calls == []                # counted from signs
        assert rep == _sweep_report(d)


@pytest.mark.parametrize("seed, k", (("single", 28), ("two", 44)))
def test_deep_blowups_are_counted_from_signs(seed, k, sweep_calls):
    """The drawings of a scan over k = 20..45, each built from rng
    [5, k], with a witness within the guard's margin of a vertex pair's
    great circle."""
    d = extend_to_complete(*hill(seed, k, [5, k]))
    sweep_calls.clear()
    rep = count_crossings(d)
    assert sweep_calls == []
    assert rep == _sweep_report(d)


def _fresh(d):
    """d's arrays in a new Drawing, not yet validated."""
    return Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                   midpoints=d.midpoints, pairing=dict(d.pairing), tol=d.tol)


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts the runs of the orientation stage."""
    return _counted(monkeypatch, "_orientation_signs")


@pytest.fixture
def vertex_calls(monkeypatch):
    """Counts the runs of the stage's vertex determinants, its O(n^3)
    part."""
    return _counted(monkeypatch, "_vertex_signs")


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the runs of the exact vertex off-curve test."""
    return _counted(monkeypatch, "_check_vertices_off_curves")


def _three_kinds():
    """A Hill complete drawing, one of its vertex deletions and an apex."""
    config, asg = hill("two", 6, [5, 6])
    d = extend_to_complete(config, asg)
    return {"complete": d, "vertex-deleted": delete_vertex(d, 3),
            "apex": add_random_apex(config, asg, np.random.default_rng(8))}


class TestSignCache:
    """Validation computes the orientation signs once and keeps them on
    the drawing; count_crossings reuses them only while they are still
    the drawing's own, for the same guard key."""

    def test_vertices_are_read_only(self, rng):
        pts = random_unit_points(8, rng)
        d = complete_drawing_from_points(pts)
        with pytest.raises(ValueError, match="read-only"):
            d.vertices[0] = pts[1]
        pts[0] = pts[1]                 # the caller's array is not d's
        assert not np.array_equal(d.vertices[0], pts[1])

    def test_half_follows_midpoints(self):
        d = extend_partial_matching(*hill_pairs(4), [1, 3])
        assert d.half.sum() == 2
        d.midpoints = np.full((len(d.uv), 3), np.nan)
        assert not d.half.any()
        d.midpoints = d.midpoints.copy()
        d.midpoints[-1] = (1.0, 0.0, 0.0)
        assert np.flatnonzero(d.half).tolist() == [len(d.uv) - 1]

    @pytest.mark.parametrize("kind", ("complete", "vertex-deleted", "apex"))
    def test_validate_then_count_runs_the_stage_once(self, kind, stage_calls,
                                                     vertex_calls,
                                                     sweep_calls,
                                                     monkeypatch):
        """The stage is kept on the drawing; its vertex determinants, from
        an empty slot (building the three kinds fills it), run once too."""
        d = _fresh(_three_kinds()[kind])
        monkeypatch.setattr(drawing_mod, "_VERTEX_SIGNS", (None, None))
        stage_calls.clear()
        vertex_calls.clear()
        sweep_calls.clear()
        validate_drawing(d)
        rep = count_crossings(d)
        assert verify(d).passed
        assert len(stage_calls) == 1 and sweep_calls == []
        assert len(vertex_calls) == 1
        assert rep == _sweep_report(d)

    def test_refusing_tolerance_recomputes(self, stage_calls, sweep_calls):
        d = _three_kinds()["apex"]
        posT, least = drawing_mod._cached_signs(d, d.tol)
        assert posT is not None
        # a general-position margin the guard refuses
        tol = ToleranceConfig(general_position=2.0 * least)
        stage_calls.clear()
        sweep_calls.clear()
        rep = count_crossings(d, tol)
        assert len(stage_calls) == 1 and sweep_calls != []
        assert rep == _sweep_report(d, tol)
        # the drawing's own tolerance: the signs are computed anew
        sweep_calls.clear()
        rep = count_crossings(d)
        assert len(stage_calls) == 2 and sweep_calls == []
        assert rep == _sweep_report(d)

    def test_unvalidated_drawings_count(self, sweep_calls):
        for d in _three_kinds().values():
            fresh = _fresh(d)
            sweep_calls.clear()
            rep = count_crossings(fresh)
            assert sweep_calls == []
            assert rep == _sweep_report(fresh) == count_crossings(d)

    def test_non_finite_vertex_goes_to_the_sweep(self, rng, sweep_calls):
        """NaN determinants of a NaN vertex are not taken for masked ones:
        a NaN or inf vertex gets no signs, and the sweep's path refuses it
        up front, naming it, before any pair is swept and with no numpy
        warning.  It once raised "edges 0 and 13 lie on the same great
        circle within tolerance", and the inf case warned from
        arc_frames."""
        d = complete_drawing_from_points(random_unit_points(8, rng))
        for bad, text in ((np.nan, "[nan, nan, nan]"),
                          ((np.inf, 0.0, 0.0), "[inf, 0.0, 0.0]")):
            vertices = d.vertices.copy()
            vertices[3] = bad
            e = Drawing(vertices=vertices, kind=d.kind, uv=d.uv,
                        midpoints=d.midpoints)
            assert drawing_mod._cached_signs(e, e.tol)[0] is None
            sweep_calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(count_crossings, e)
            assert sweep_calls == []
            assert got == (ValueError, f"vertex 3 is not finite: {text}")

    def test_non_finite_midpoint_is_refused_by_name(self, sweep_calls):
        """A half-circle's midpoint witness with an inf, or with a NaN
        beside finite entries, is refused like a vertex, after every
        vertex; a row all NaN is an arc, no half-circle."""
        d = extend_to_complete(*hill("two", 6, [5, 6]))
        e = int(np.flatnonzero(d.half)[2])
        sweep_calls.clear()
        for bad, text in (((np.inf, 0.0, 0.0), "[inf, 0.0, 0.0]"),
                          ((0.0, np.nan, 1.0), "[0.0, nan, 1.0]")):
            mids = d.midpoints.copy()
            mids[e] = bad
            bad_mid = Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                              midpoints=mids, pairing=d.pairing)
            vertices = d.vertices.copy()
            vertices[7] = np.nan
            both = Drawing(vertices=vertices, kind=d.kind, uv=d.uv,
                           midpoints=mids, pairing=d.pairing)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _outcome(count_crossings, bad_mid) == (
                    ValueError, f"midpoint of edge {e} is not finite: {text}")
                assert _outcome(count_crossings, both) == (
                    ValueError, "vertex 7 is not finite: [nan, nan, nan]")
            assert sweep_calls == []

    def test_changed_drawing_is_recounted(self, rng, stage_calls):
        """Signs kept for other vertices or another pairing are not used."""
        d = complete_drawing_from_points(random_unit_points(12, rng))
        d.vertices = random_unit_points(12, rng)
        stage_calls.clear()
        assert count_crossings(d) == _sweep_report(d)
        assert len(stage_calls) == 1
        d = build_cocktail_party(random_config(6, rng))
        d.pairing.clear()
        stage_calls.clear()
        assert (_outcome(count_crossings, d)
                == _outcome(lambda d, tol: _sweep_report(d), d))
        assert len(stage_calls) == 1

    def test_sampled_trial_runs_the_stage_once(self, vertex_calls,
                                               sweep_calls, monkeypatch):
        """sample_points' pass is the one validation and counting read."""
        monkeypatch.setattr(drawing_mod, "_VERTEX_SIGNS", (None, None))
        for n in (4, 30, 100):
            rng = np.random.default_rng([53, n])
            vertex_calls.clear()
            sweep_calls.clear()
            pts = sample_points(n, DistributionSpec(), rng)
            d = complete_drawing_from_points(pts)
            rep = count_crossings(d)
            assert len(vertex_calls) == 1 and sweep_calls == []
            assert rep == _sweep_report(d)

    def test_sampled_points_edited_or_other_tolerance(self, vertex_calls,
                                                      monkeypatch):
        """The memo is keyed by content: points the caller edits after
        sampling, or a drawing whose tolerance gives another guard key,
        get the stage run anew."""
        monkeypatch.setattr(drawing_mod, "_VERTEX_SIGNS", (None, None))
        rng = np.random.default_rng(54)
        pts = sample_points(30, DistributionSpec(), rng)
        pts[7] = unit(pts[7] + 1e-3)
        vertex_calls.clear()
        d = complete_drawing_from_points(pts)
        assert len(vertex_calls) == 1
        assert count_crossings(d) == _sweep_report(d)
        pts = sample_points(30, DistributionSpec(), rng)
        tol = ToleranceConfig(general_position=1e-8)
        vertex_calls.clear()
        d = complete_drawing_from_points(pts, tol)
        assert len(vertex_calls) == 1
        assert count_crossings(d) == _sweep_report(d)

    def test_cleared_draw_skips_the_separation_test(self, monkeypatch):
        """A draw whose stage clears _off_curve_bound takes its pair cross
        products once, in the stage; on four points, which the bound does
        not cover, the separation test runs."""
        calls = []
        monkeypatch.setattr(montecarlo_mod, "cross",
                            lambda *args: calls.append(1) or geom.cross(*args))
        for n in (5, 30, 100):
            sample_points(n, DistributionSpec(), np.random.default_rng([61, n]))
        assert calls == []
        sample_points(4, DistributionSpec(), np.random.default_rng(61))
        assert calls != []

    @pytest.mark.parametrize("tol", (DEFAULT_TOL, ToleranceConfig(
        general_position=5e-14, sign=1e-15)), ids=("default", "below-floor"))
    @pytest.mark.parametrize("factor", (1 - 1e-12, 1 + 1e-12))
    def test_sampler_verdict_at_the_margin(self, factor, tol):
        """A draw with a triple at |det| = general_position (1 +- 1e-12)
        is kept or redrawn exactly as the former acceptance test did, also
        where the guard's floor exceeds general_position and refuses both."""
        z = factor * tol.general_position
        c = np.sqrt((1.0 - z * z) / 2.0)
        rest = random_unit_points(12, np.random.default_rng(55))
        chosen = [np.concatenate([np.eye(3)[:2], [[c, c, z]], rest]),
                  random_unit_points(len(rest) + 3,
                                     np.random.default_rng(57))]

        def sampled(usable):
            sets = iter(chosen)
            spec = DistributionSpec(kind="antipodal_symmetrized",
                                    base=lambda rng, size: next(sets))
            rng = np.random.default_rng(56)
            if usable is None:
                return sample_points(len(rest) + 3, spec, rng, tol)
            while True:
                pts = spec.draw(rng, len(rest) + 3)
                if usable(pts, tol):
                    return pts

        got = sampled(None)
        assert np.array_equal(got, sampled(points_usable_reference))
        kept = np.array_equal(np.abs(got[:2]), np.eye(3)[:2])
        assert kept == (factor > 1.0)

    def test_sampler_redraws_a_non_finite_draw(self):
        """A NaN draw, which the stage declines, is redrawn, not passed by
        the coplanarity fallback; a base that always gives NaN ends in
        SamplingError."""
        first = random_unit_points(8, np.random.default_rng(58))
        first[5] = np.nan

        def sampled(usable, sets):
            spec = DistributionSpec(kind="antipodal_symmetrized",
                                    base=lambda rng, size: next(sets))
            rng = np.random.default_rng(59)
            if usable is None:
                return sample_points(8, spec, rng)
            while True:
                pts = spec.draw(rng, 8)
                if usable(pts, DEFAULT_TOL):
                    return pts

        def scripted():
            yield first
            while True:
                yield random_unit_points(8, np.random.default_rng(60))

        with np.errstate(invalid="ignore"):
            got = sampled(None, scripted())
            assert np.isfinite(got).all()
            assert np.array_equal(
                got, sampled(points_usable_reference, scripted()))
            with pytest.raises(SamplingError):
                sampled(None, repeat(first))


def _swept_drawings():
    """The four drawings of test_invalid_drawings_go_to_the_sweep, built
    the same way, and the census gap of a partial matching."""
    config, asg = hill("single", 4, [6, 4])
    d = extend_to_complete(config, asg)
    twice = Drawing(vertices=d.vertices, kind=d.kind,
                    uv=np.concatenate([d.uv, d.uv[:1]]),
                    midpoints=np.concatenate([d.midpoints, d.midpoints[:1]]),
                    pairing=d.pairing)
    vertices = d.vertices.copy()
    vertices[4] = unit(vertices[4] + 1e-9)
    moved = Drawing(vertices=vertices, kind=d.kind, uv=d.uv,
                    midpoints=d.midpoints, pairing=d.pairing)
    points = _points_drawing(random_unit_points(
        8, np.random.default_rng(4)))
    one_way = Drawing(vertices=points.vertices, kind=points.kind,
                      uv=points.uv, midpoints=points.midpoints,
                      pairing={4: 0})
    missing = Drawing(vertices=points.vertices, kind=points.kind,
                      uv=points.uv[1:], midpoints=points.midpoints[1:])
    return [twice, moved, one_way, missing, census_gap()]


def _refused(d):
    """Whether validate_drawing raises ValueError on d, or d's orientation
    stage refuses."""
    try:
        validate_drawing(d)
    except ValueError:
        return True
    except DegenerateConfigurationError:
        pass
    return drawing_mod._cached_signs(d, d.tol)[0] is None


class TestOneVerdict:
    """The sign counter's eligibility is validate_drawing's structural
    verdict, kept on the drawing, and the stage: nothing else."""

    def test_counter_declines_exactly_what_validation_refuses(self):
        swept = _swept_drawings()
        drawings = [*_three_kinds().values(), *swept]
        for seed, op in WITNESS_STREAMS:
            drawings += _pipeline_drawings(seed, op)
        declined = 0
        for d in drawings:
            per_edge = drawing_mod._sign_counts(_fresh(d), d.tol)
            assert (per_edge is None) == _refused(_fresh(d))
            if per_edge is None:
                declined += 1
            else:
                assert np.array_equal(per_edge, _sweep_report(d).per_edge)
        assert declined == len(swept)

    def test_count_reads_the_validated_verdict(self, monkeypatch):
        calls = _counted(monkeypatch, "_check_edge_census")
        for d in _three_kinds().values():
            fresh = _fresh(d)
            calls.clear()
            validate_drawing(fresh)
            assert len(calls) == 1
            rep = count_crossings(fresh)
            assert verify(fresh).passed
            assert len(calls) == 1
            assert rep == _sweep_report(fresh)
        # new arrays or another kind after validation: the verdict is
        # computed anew, once each
        fresh.midpoints = fresh.midpoints.copy()
        assert count_crossings(fresh) == _sweep_report(fresh)
        fresh.kind = DrawingKind.COMPLETE_MINUS_VERTEX
        assert count_crossings(fresh) == _sweep_report(fresh)
        assert len(calls) == 3


class TestVerdictRefusals:
    """Where the kept verdict holds a fault, verify raises
    validate_drawing's ValueError instead of comparing a closed form, and
    count_crossings raises it where an edge endpoint lies outside the
    vertices, which the sweep cannot index."""

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_verify_refuses_the_census_gap(self, seed):
        """verify used to report partial_matching_total as failed."""
        bad = census_gap(seed)
        want = _verdict(validate_drawing, _fresh(bad))
        assert want == (ValueError, CENSUS_GAP)
        assert _verdict(verify, bad) == want

    def test_verify_refuses_the_swept_drawings(self):
        for d in _swept_drawings():
            want = _verdict(validate_drawing, _fresh(d))
            assert want[0] is ValueError
            assert want[1] in drawing_mod._verdict(_fresh(d))
            assert _verdict(verify, _fresh(d)) == want

    @pytest.mark.parametrize("end", (-1, -3, 8))
    def test_count_refuses_an_endpoint_outside(self, end, sweep_calls):
        """Once "edge pair (5,10) falls in the sign dead zone" for -1,
        "(5,13)" for -3 and a bare IndexError for n = 8."""
        d = build_cocktail_party(random_config(4, np.random.default_rng(3)))
        uv = d.uv.copy()
        uv[5, 1] = end
        bad = Drawing(vertices=d.vertices, kind=d.kind, uv=uv,
                      midpoints=d.midpoints, pairing=d.pairing)
        want = (ValueError, f"edge ({uv[5, 0]},{end}) has invalid endpoints")
        assert _verdict(validate_drawing, _fresh(bad)) == want
        assert _verdict(count_crossings, bad) == want
        assert sweep_calls == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_count_refuses_an_arc_on_a_couple(self, seed, sweep_calls):
        """A half-circle whose midpoint row is NaN is an arc on an exact
        couple, which has no great circle.  The count once swept it and
        raised "edges 1 and 41 lie on the same great circle within
        tolerance", with numpy's RuntimeWarning from arc_frames."""
        d = extend_to_complete(*hill(seed, 5, [5, 5]))
        e = int(np.flatnonzero((d.uv == (1, 6)).all(axis=1))[0])
        mids = d.midpoints.copy()
        mids[e] = np.nan
        bad = Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                      midpoints=mids, pairing=d.pairing)
        want = (ValueError, "matching edge (1,6) must be a half-circle")
        sweep_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _verdict(validate_drawing, _fresh(bad)) == want
            assert _verdict(count_crossings, bad) == want
        assert sweep_calls == []

    @pytest.mark.parametrize("sign", (-1.0, 1.0), ids=("antipodal", "equal"))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_count_refuses_equal_or_antipodal_arc_ends(self, seed, sign,
                                                       sweep_calls):
        """A K_8 point drawing with vertex 5 set to -vertex 3 or to vertex
        3.  The count once swept it and raised "edges 0 and 19 lie on the
        same great circle within tolerance", with numpy's RuntimeWarning
        from arc_frames."""
        d = complete_drawing_from_points(
            random_unit_points(8, np.random.default_rng(seed)))
        vertices = d.vertices.copy()
        vertices[5] = sign * vertices[3]
        bad = Drawing(vertices=vertices, kind=d.kind, uv=d.uv,
                      midpoints=d.midpoints)
        want = (DegenerateConfigurationError,
                "arc endpoints are equal or antipodal within tolerance")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _verdict(validate_drawing, _fresh(bad)) == want
            assert _verdict(count_crossings, bad) == want
        assert sweep_calls == []


def _verdict(check, d):
    """None if check(d) passes, else the type and message it raised."""
    try:
        check(d)
    except (ValueError, DegenerateConfigurationError) as exc:
        return type(exc), str(exc)
    return None


def _near_axis_arc(w, rng):
    """A complete point drawing, unvalidated, on e1, e2, w and five random
    points: arc (0,1) has the frame (e3, e1, e2), so N.w = det(e1, e2, w)
    = w[2] exactly, and w lies in the arc's wedge iff w[0], w[1] > 0."""
    pts = np.concatenate([np.eye(3)[:2], [w], random_unit_points(5, rng)])
    uv = np.stack(np.triu_indices(len(pts), 1), axis=1)
    return Drawing(vertices=pts, kind=DrawingKind.COMPLETE, uv=uv,
                   midpoints=np.full((len(uv), 3), np.nan)), (0, 1)


def _near_axis_half_circle(q, rng):
    """An apex drawing, unvalidated, whose apex is q and whose half-circle
    (0, k) runs from e1 through e2: its frame is (e3, e2, e2), so N.q =
    det(e1, e2, q) = q[2] exactly, and q lies on its half iff q[1] > 0."""
    while True:
        try:
            config = double(np.concatenate([np.eye(3)[:1],
                                            random_unit_points(4, rng)]))
            mids = random_assignment(config, rng).midpoints.copy()
            mids[0] = np.eye(3)[1]
            full = extend_to_complete(config, make_assignment(config, mids))
            break
        except DegenerateConfigurationError:
            continue
    n = full.n
    spokes = np.stack([np.arange(n), np.full(n, n)], axis=1)
    return Drawing(vertices=np.concatenate([full.vertices, [q]]),
                   kind=DrawingKind.COMPLETE_PLUS_APEX,
                   uv=np.concatenate([full.uv, spokes]),
                   midpoints=np.concatenate([full.midpoints,
                                             np.full((n, 3), np.nan)]),
                   pairing=full.pairing), (0, config.k)


def _vertex_near_half_circle(det, rng):
    """_near_axis_half_circle's apex drawing with det(e1, e2, q) = det,
    the table entry of half-circle (0, k) at the apex q, and q off that
    half-circle (q[1] < 0): validation passes."""
    c = -np.sqrt((1.0 - det * det) / 2.0)
    return _near_axis_half_circle(np.array([c, c, det]), rng)[0]


class TestValidationVerdicts:
    """validate_drawing skips the exact vertex off-curve test and the arc
    endpoint test only where the orientation guard covers them, so its
    verdict and message are always those of the exact tests."""

    @pytest.mark.parametrize("factor", (1 - 1e-12, 1 + 1e-12,
                                        -1 + 1e-12, -1 - 1e-12))
    @pytest.mark.parametrize("inside", (True, False))
    @pytest.mark.parametrize("build", (_near_axis_arc,
                                       _near_axis_half_circle))
    def test_vertex_at_the_margin(self, build, inside, factor, rng):
        """A vertex at |det| = general_position (1 +- 1e-12) from an arc
        or a half-circle, inside or outside its wedge."""
        z = factor * DEFAULT_TOL.general_position
        c = np.sqrt((1.0 - z * z) / 2.0) * (1.0 if inside else -1.0)
        d, (eu, ev) = build(np.array([c, c, z]), rng)
        w = 2 if build is _near_axis_arc else d.n - 1
        want = _verdict(drawing_mod._check_vertices_off_curves, _fresh(d))
        assert _verdict(validate_drawing, d) == want
        if inside and abs(factor) < 1.0:
            assert want == (DegenerateConfigurationError,
                            f"vertex {w} lies on edge ({eu},{ev}) within "
                            "tolerance")
        else:
            assert want is None

    def test_covered_drawings_skip_the_exact_test(self, rng, exact_calls):
        drawings = [*_three_kinds().values(),
                    complete_drawing_from_points(random_unit_points(30, rng)),
                    build_cocktail_party(random_config(7, rng))]
        exact_calls.clear()
        for d in drawings:
            validate_drawing(_fresh(d))
        assert exact_calls == []

    def test_covered_drawings_skip_the_arc_test(self, rng, monkeypatch):
        """The arc test runs only where the guard refuses, as next to a
        vertex near a half-circle's plane; a midpoint near an arc is
        covered."""
        drawings = [*_three_kinds().values(),
                    complete_drawing_from_points(random_unit_points(30, rng)),
                    build_cocktail_party(random_config(7, rng)),
                    midpoint_near_arc(*hill_pairs(5), 2, 5e-10)[0]]
        refused = _vertex_near_half_circle(5e-10, rng)
        arc_calls = _counted(monkeypatch, "require_arc_rows")
        for d in drawings:
            validate_drawing(_fresh(d))
        assert arc_calls == []
        validate_drawing(_fresh(refused))
        assert arc_calls == [1]

    @pytest.mark.parametrize("factor, want", [
        (1 - 1e-12, (DegenerateConfigurationError, "arc endpoints are "
                     "equal or antipodal within tolerance")),
        (1 + 1e-12, (DegenerateConfigurationError, "vertex 1 lies on edge "
                     "(0,2) within tolerance"))])
    def test_arc_at_the_margin(self, factor, want):
        """Vertex 1 at |e1 x v1| = general_position (1 -+ 1e-12) from
        vertex 0 = e1: the arc test refuses arc (0,1), or passes it and
        the off-curve test decides."""
        g = factor * DEFAULT_TOL.general_position
        rest = random_unit_points(6, np.random.default_rng(41))
        pts = np.concatenate([[[1.0, 0.0, 0.0], [np.sqrt(1.0 - g * g), g,
                                                 0.0]], rest])
        assert _verdict(validate_drawing, _points_drawing(pts)) == want

    def test_four_points_are_not_covered(self):
        """A cocktail drawing on two equal base points: every triple of
        its four points holds a couple or a repeated point, so the guard
        passes with nothing to guard, and the arc test still refuses."""
        a = np.array([0.6, 0.8, 0.0])
        d = Drawing(vertices=[a, a, -a, -a], kind=DrawingKind.COCKTAIL_PARTY,
                    uv=[[0, 1], [0, 3], [1, 2], [2, 3]],
                    midpoints=np.full((4, 3), np.nan),
                    pairing={0: 2, 2: 0, 1: 3, 3: 1})
        assert drawing_mod._cached_signs(d, d.tol)[1] == np.inf
        assert _verdict(validate_drawing, d) == (
            DegenerateConfigurationError,
            "arc endpoints are equal or antipodal within tolerance")

    @pytest.mark.parametrize("det", (5e-10, 1e-14))
    def test_refused_guard_runs_the_exact_test(self, det, exact_calls):
        """A vertex next to a half-circle's plane, off the half-circle: the
        guard refuses, and the exact test decides, as before."""
        d = _vertex_near_half_circle(det, np.random.default_rng(31))
        assert drawing_mod._cached_signs(d, d.tol)[0] is None
        exact_calls.clear()
        validate_drawing(_fresh(d))
        assert exact_calls == [1]


def _axis_config(rng):
    """Hill-free antipodal pairs whose base points 0 and 1 are e1 and e2,
    with a random assignment whose full drawing validates."""
    while True:
        try:
            config = double(np.concatenate([np.eye(3)[:2],
                                            random_unit_points(4, rng)]))
            asg = random_assignment(config, rng)
            extend_to_complete(config, asg)
            return config, asg
        except DegenerateConfigurationError:
            continue


class TestApexChecks:
    """add_apex skips its coplanar and on-curve checks only where the apex
    drawing's orientation stage shows they cannot fire, so its verdict
    and message are always those of the checks themselves."""

    @pytest.mark.parametrize("factor", (1 - 1e-12, 1 + 1e-12,
                                        -1 + 1e-12, -1 - 1e-12))
    @pytest.mark.parametrize("inside", (True, False))
    def test_apex_at_the_margin(self, inside, factor, rng):
        """det(e1, e2, q) = q[2] = general_position (1 +- 1e-12) exactly,
        with q inside or outside the arc from e1 to e2."""
        config, asg = _axis_config(rng)
        z = factor * DEFAULT_TOL.general_position
        c = np.sqrt((1.0 - z * z) / 2.0) * (1.0 if inside else -1.0)
        q = np.array([c, c, z])
        want = _verdict(lambda _: apex_checks_reference(
            config, asg, q, DEFAULT_TOL), None)
        assert _verdict(lambda _: add_apex(config, asg, q), None) == want
        if abs(factor) < 1.0:
            assert want == (DegenerateConfigurationError, "apex is coplanar "
                            "with vertices 0,1; resample the apex")
        else:
            assert want is None

    def test_random_apexes_match_the_checks(self, rng):
        for k in (3, 5, 8):
            config, asg = hill("two", k, rng)
            for _ in range(10):
                q = unit(rng.normal(size=3))
                apex_checks_reference(config, asg, q, DEFAULT_TOL)
                add_apex(config, asg, q)

    def test_checks_run_only_where_the_stage_refuses(self, monkeypatch):
        """The exact checks pack the full drawing; a cleared stage needs
        no packing at all."""
        packs = _counted(monkeypatch, "_pack_drawing")
        config, asg = hill_pairs(4)
        add_random_apex(config, asg, np.random.default_rng(3))
        assert packs == []
        with pytest.raises(DegenerateConfigurationError, match="on edge"):
            add_apex(config, asg, asg.midpoints[2])
        assert packs == [1]


def _points_drawing(pts):
    """The complete point drawing on pts, unvalidated: any size."""
    uv = np.stack(np.triu_indices(len(pts), 1), axis=1)
    return Drawing(vertices=pts, kind=DrawingKind.COMPLETE, uv=uv,
                   midpoints=np.full((len(uv), 3), np.nan))


@pytest.fixture(scope="module")
def stage_drawings():
    """Point drawings of 1 to 3 points and of 1, 2 and 3 bitset words,
    with Hill, vertex-deleted, apex, cocktail and partial drawings.  In
    "vertex 0 deleted" the former partner of vertex 0, now unpaired, is
    vertex 5, in a later block than vertex 0 under tiles of 5 and 1000."""
    rng = np.random.default_rng(617)
    pts = random_unit_points(129, rng)
    out = {f"K{P}": _points_drawing(pts[:P])
           for P in (1, 2, 3, 17, 64, 65, 129)}
    out.update(_three_kinds())
    out["vertex 0 deleted"] = delete_vertex(out["complete"], 0)
    out["cocktail"] = build_cocktail_party(random_config(6, rng))
    config = random_config(7, rng)
    out["partial"] = extend_partial_matching(
        config, random_assignment(config, rng), [0, 3, 4])
    return out


MIRROR_SIZES = (32, 33, 64, 65, 100)
MIRROR_KINDS = ("cocktail k=20", *(f"Hill k={k}" for k in range(20, 25)),
                "Hill k=24, vertex 5 deleted", "Hill k=20 plus apex")


@pytest.fixture(scope="module")
def mirror_drawings():
    """Point drawings on both sides of the one-block limit (n = 32 under
    the default tile) and of the word boundary, and drawings with
    couples, with an unpaired vertex and with an apex."""
    rng = np.random.default_rng(2020)
    out = {f"K{n}": _points_drawing(random_unit_points(n, rng))
           for n in MIRROR_SIZES}
    out["cocktail k=20"] = build_cocktail_party(random_config(20, rng))
    for k in range(20, 25):
        config, asg = hill("four", k, [20, k])
        out[f"Hill k={k}"] = extend_to_complete(config, asg)
        if k == 20:
            out["Hill k=20 plus apex"] = add_random_apex(config, asg, rng)
    out["Hill k=24, vertex 5 deleted"] = delete_vertex(out["Hill k=24"], 5)
    return out


class TestDeterminantsOnce:
    """The kernels take each cross product once per point set; their
    determinants must be those of one np.cross per block, bit for bit.
    The orientation stage evaluates only the rows a against the columns
    b >= a's block and mirrors the rest: its signs and least must still
    be those of every ordered triple."""

    def test_orientation_stage(self, stage_drawings, monkeypatch):
        """Tiles of 5 give one row per block; 1000 gives blocks of several
        rows and a short last one."""
        for tile in (5, 1000, geom._TILE):
            monkeypatch.setattr(geom, "_TILE", tile)
            for d in stage_drawings.values():
                self._check_stage(d)

    @pytest.mark.parametrize("tile", (5, 1000, geom._TILE))
    @pytest.mark.parametrize("name", (*(f"K{n}" for n in MIRROR_SIZES),
                                      *MIRROR_KINDS))
    def test_mirrored_signs(self, name, tile, mirror_drawings, monkeypatch):
        """pos[b, a] past a's block is derived from the packed pos[a, b]
        once the guard has passed: it must still be det(b, a, x) > 0 over
        the unmasked x, with couples, an unpaired vertex and an apex, on
        one block (n <= 32 under the default tile) and on several, on one
        word and on two."""
        monkeypatch.setattr(geom, "_TILE", tile)
        self._check_stage(mirror_drawings[name])

    @pytest.mark.parametrize("tile", (5, 1000, geom._TILE))
    def test_refusal_in_a_later_block(self, tile, monkeypatch, rng):
        """A K_100 whose only triple inside the margin is (60, 61, 62),
        rows of a later block than the first under every tile: no signs,
        and the least |det| of the blocks up to the refusing one."""
        monkeypatch.setattr(geom, "_TILE", tile)
        z = 5e-10
        pts = random_unit_points(100, rng)
        c = np.sqrt((1.0 - z * z) / 2.0)
        pts[60:63] = np.eye(3)[0], np.eye(3)[1], (c, c, z)
        key = max(DEFAULT_TOL.general_position, drawing_mod._DET_FLOOR)
        assert drawing_mod._orientation_signs(_points_drawing(pts),
                                              key) == (None, z)

    @staticmethod
    def _check_stage(d):
        """posT over the n vertices and the half-circle table sides, each
        against one np.cross per block, with the masks built here anew."""
        key = max(d.tol.general_position, drawing_mod._DET_FLOOR)
        (posT, sides), least = drawing_mod._orientation_signs(d, key)
        dets = block_dets_reference(d.vertices)
        n = d.n
        idx = np.arange(n)
        partner = np.full(n, -1)
        partner[list(d.pairing)] = list(d.pairing.values())
        pair = (idx[:, None] == idx) | (partner[:, None] == idx)
        masked = pair[:, :, None] | pair[:, None, :] | pair
        huv = d.uv[d.half]
        table = (np.cross(d.vertices[huv[:, 0]], d.midpoints[d.half])
                 @ d.vertices.T)
        ends = (idx == huv[:, :1]) | (idx == huv[:, 1:])
        assert least == min(np.abs(dets[~masked]).min(initial=np.inf),
                            np.abs(table[~ends]).min(initial=np.inf))
        assert posT.shape == (n, (n + 63) // 64, n)
        bits = np.zeros((n, n, 64 * posT.shape[1]), dtype=bool)
        bits[..., :n] = (dets > 0.0) & ~masked
        assert np.array_equal(posT.transpose(0, 2, 1), np.packbits(
            bits, axis=-1, bitorder="little").view(np.uint64))
        assert sides.dtype == np.int8 and sides.shape == (len(huv), n)
        assert np.array_equal(sides, np.where(ends, 0, np.sign(table)))

    @pytest.mark.parametrize("tile", (5, 1000, geom._TILE))
    def test_refused_guard_gives_no_signs(self, tile, monkeypatch):
        """A point near an arc's great circle, or a vertex near a
        half-circle's plane: no signs, and a least within the margin.  A
        midpoint near an arc is no refusal."""
        monkeypatch.setattr(geom, "_TILE", tile)
        for d, refused in _guard_drawings():
            key = max(d.tol.general_position, drawing_mod._DET_FLOOR)
            signs, least = drawing_mod._orientation_signs(d, key)
            assert (signs is None) == refused
            assert (least <= key + d.tol.perp) == refused

    @pytest.mark.parametrize("n", (5, 40, 150))
    def test_coplanarity_check(self, n, rng):
        pts = random_unit_points(n, rng)
        least = coplanar_reference(pts)
        assert geom.has_coplanar_triple(pts, least)
        assert not geom.has_coplanar_triple(pts, np.nextafter(least, 0.0))


def _minus(pts, partner, v):
    """The points and partner array of pts without vertex v, as
    delete_vertex leaves them: v's partner unpaired, indices past v
    shifted down."""
    partner = np.delete(partner, v)
    partner = np.where(partner == v, -1, partner - (partner > v))
    return np.delete(pts, v, axis=0), partner


def _margin(d, key):
    """The guard margin of d's orientation stage: key + max |p.m|."""
    ends = d.vertices[d.uv[d.half, 0]]
    return key + np.abs(np.einsum("ij,ij->i", ends, d.midpoints[d.half])
                        ).max(initial=0.0)


class TestDerivedStages:
    """A vertex-deleted drawing derives its vertex part from its parent's:
    the bits must be a fresh run's and the least a lower bound of a fresh
    run's above the margin.  An apex drawing runs its own, on one point
    more.  The drawings on one point set share one vertex part."""

    KEY = max(DEFAULT_TOL.general_position, drawing_mod._DET_FLOOR)

    @pytest.mark.parametrize("tile", (5, 1000, geom._TILE))
    def test_vertex_parts(self, tile, stage_drawings, mirror_drawings,
                          monkeypatch):
        """Every fixture drawing, with vertices 0, n // 2 and n - 1
        deleted: one to three words, and the word count falling from 65
        to 64 vertices and from 129 to 128."""
        monkeypatch.setattr(geom, "_TILE", tile)
        for name, d in {**stage_drawings, **mirror_drawings}.items():
            pts, partner = d.vertices, drawing_mod._kept(d).partner
            vertex = drawing_mod._vertex_signs(pts, partner, self.KEY)
            for v in sorted({0, d.n // 2, d.n - 1}):
                posT, least = drawing_mod._drop_vertex_signs(vertex, v)
                fresh = drawing_mod._vertex_signs(*_minus(pts, partner, v),
                                                  self.KEY)
                assert np.array_equal(posT, fresh[0]), (name, v)
                assert posT.flags.c_contiguous and not posT.flags.writeable
                assert least == vertex[1] <= fresh[1]

    @pytest.mark.parametrize("tile", (5, 1000, geom._TILE))
    def test_fixture_deletions_and_apexes(self, tile, stage_drawings,
                                          mirror_drawings, monkeypatch):
        """The same at the drawings, with their tables: every fixture
        drawing of kind complete on five or more vertices, with vertices
        0, n // 2 and n - 1 deleted, and an apex on each Hill one."""
        monkeypatch.setattr(geom, "_TILE", tile)
        rng = np.random.default_rng(2122)
        for name, d in {**stage_drawings, **mirror_drawings}.items():
            if d.kind is not DrawingKind.COMPLETE or d.n < 5:
                continue
            d = _fresh(d)
            assert drawing_mod._cached_signs(d, d.tol)[0] is not None
            for v in (0, d.n // 2, d.n - 1):
                self._check(delete_vertex(d, v), exact=False)
            if d.pairing:
                self._check(add_random_apex(*config_from_drawing(d), rng),
                            exact=True)

    @staticmethod
    def _check(d, exact):
        """d's kept stage against a fresh one of the same arrays."""
        key = TestDerivedStages.KEY
        (posT, sides), least = drawing_mod._cached_signs(d, d.tol)
        (fresh_posT, fresh_sides), fresh_least = \
            drawing_mod._orientation_signs(_fresh(d), key)
        assert np.array_equal(posT, fresh_posT)
        assert np.array_equal(sides, fresh_sides)
        if exact:
            assert least == fresh_least
        else:
            assert _margin(d, key) < least <= fresh_least

    @pytest.mark.parametrize("tile", (5, 1000, geom._TILE))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hill_deletions_and_apexes(self, seed, tile, vertex_calls,
                                       monkeypatch):
        """No vertex determinant is computed for a deletion, and each apex
        tried runs them once; their stages are a fresh run's.  k = 33 and
        the apex of k = 32 reach two words."""
        monkeypatch.setattr(geom, "_TILE", tile)
        apex_calls = _counted(monkeypatch, "add_apex")
        rng = np.random.default_rng([21, tile])
        for k in (5, 12, 32, 33):
            config, asg = hill(seed, k, [21, k])
            d = extend_to_complete(config, asg)
            vertex_calls.clear()
            minus = [delete_vertex(d, v) for v in
                     (0, k, 2 * k - 1, int(rng.integers(2 * k)))]
            assert vertex_calls == []
            apex_calls.clear()
            plus = add_random_apex(config, asg, rng)
            assert len(vertex_calls) == len(apex_calls) >= 1
            for e in minus:
                self._check(e, exact=False)
            self._check(plus, exact=True)

    def test_point_deletion_from_65_to_64(self, vertex_calls):
        d = complete_drawing_from_points(random_unit_points(
            65, np.random.default_rng(65)))
        vertex_calls.clear()
        minus = [delete_vertex(d, v) for v in (0, 31, 63, 64)]
        assert vertex_calls == []
        for e in minus:
            assert drawing_mod._cached_signs(e, e.tol)[0][0].shape == (
                64, 1, 64)
            self._check(e, exact=False)

    def test_other_key_or_refused_parent_is_computed_afresh(self,
                                                            vertex_calls):
        config, asg = hill("two", 6, [5, 6])
        d = extend_to_complete(config, asg)
        tol = ToleranceConfig(general_position=1e-8)
        vertex_calls.clear()
        minus = delete_vertex(d, 2, tol)
        assert len(vertex_calls) == 1
        self._check(minus, exact=True)
        least = drawing_mod._cached_signs(d, d.tol)[1]
        refused = ToleranceConfig(general_position=2.0 * least)
        count_crossings(d, refused)
        assert drawing_mod._cached_signs(d, refused)[0] is None
        vertex_calls.clear()
        minus = delete_vertex(d, 2, refused)
        assert len(vertex_calls) == 1
        assert drawing_mod._kept(minus).least == \
            drawing_mod._orientation_signs(_fresh(minus), 2.0 * least)[1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hill_op_runs_the_vertex_determinants_twice(self, seed,
                                                        vertex_calls,
                                                        sweep_calls,
                                                        monkeypatch):
        """Build, a document round trip, a deletion and an apex, each
        verified, as the CLI's generate, verify and mutate do: once for
        the built and parsed drawings together, once for the apex."""
        monkeypatch.setattr(drawing_mod, "_VERTEX_SIGNS", (None, None))
        rng = np.random.default_rng(22)
        config, asg = hill(seed, 9, [22, 9])
        vertex_calls.clear()
        sweep_calls.clear()
        d = extend_to_complete(config, asg)
        parsed = doc_to_drawing(json.loads(json.dumps(drawing_to_doc(d))))
        assert verify(parsed).passed
        minus = delete_vertex(parsed, int(rng.integers(parsed.n)))
        assert verify(minus).passed
        plus = add_random_apex(*config_from_drawing(parsed), rng)
        assert verify(plus).passed
        assert len(vertex_calls) == 2 and sweep_calls == []

    def test_cocktail_then_partial_runs_them_once(self, vertex_calls,
                                                  sweep_calls, monkeypatch):
        monkeypatch.setattr(drawing_mod, "_VERTEX_SIGNS", (None, None))
        rng = np.random.default_rng(23)
        for k in (3, 6, 10):
            config = random_config(k, rng)
            vertex_calls.clear()
            assert verify(build_cocktail_party(config)).passed
            partial = extend_partial_matching(
                config, random_assignment(config, rng), [int(rng.integers(k))])
            assert verify(partial).passed
            assert len(vertex_calls) == 1 and sweep_calls == []


class TestOneArcLoop:
    """_sign_counts counts every drawing's arcs in blocks of rows, the
    point drawings too, and ANDs into its gathered copy of the kept
    bitsets, which must stay read-only."""

    def test_block_edges(self, stage_drawings, monkeypatch):
        """Tiles of 5 give one arc per block, 1000 a few with a short last
        block; the counts are the sweep's wherever it is cheap to run."""
        counts = {}
        for tile in (5, 1000, geom._TILE):
            monkeypatch.setattr(geom, "_TILE", tile)
            for name, d in stage_drawings.items():
                per_edge = drawing_mod._sign_counts(_fresh(d), d.tol)
                assert per_edge is not None
                counts.setdefault(name, []).append(per_edge)
        for name, (first, *rest) in counts.items():
            assert all(np.array_equal(first, c) for c in rest), name
            d = stage_drawings[name]
            if d.n <= 65:
                assert np.array_equal(first, _sweep_report(d).per_edge), name

    def test_three_words_equal_the_sweep(self, stage_drawings,
                                         sweep_calls):
        """K_129 holds three words per bitset, and the complement side
        mask sets the 63 bits of the last past n: the counted totals are
        the sweep's.  A counted report's pairs are swept, so only its
        counts are compared."""
        d = _fresh(stage_drawings["K129"])
        rep = count_crossings(d)
        assert sweep_calls == []            # counted from signs
        want = _sweep_report(d)
        assert rep.total == want.total
        assert np.array_equal(rep.per_edge, want.per_edge)
        assert np.array_equal(rep.per_vertex, want.per_vertex)

    def test_kept_signs_are_read_only(self, stage_drawings):
        d = _fresh(stage_drawings["complete"])
        validate_drawing(d)
        posT, sides = drawing_mod._cached_signs(d, d.tol)[0]
        with pytest.raises(ValueError, match="read-only"):
            posT[0, 0, 1] = 0
        with pytest.raises(ValueError, match="read-only"):
            sides[0, 0] = 0
        first = count_crossings(d)
        assert count_crossings(d) == first == _sweep_report(d)


def _guard_drawings():
    """(drawing, refused) for a point at det 5e-10 from an arc's great
    circle, a vertex at det 5e-10 from a half-circle's plane and a
    midpoint at det 5e-10 from an arc."""
    rng = np.random.default_rng(31)
    z = 0.5 * DEFAULT_TOL.general_position
    c = np.sqrt((1.0 - z * z) / 2.0)
    config = random_config(6, rng)
    near_arc = midpoint_near_arc(config, random_assignment(config, rng), 2,
                                 z)[0]
    return [(_near_axis_arc(np.array([c, c, z]), rng)[0], True),
            (_vertex_near_half_circle(z, rng), True), (near_arc, False)]


@pytest.mark.parametrize("tile", (5, 1000, geom._TILE))
def test_refused_guard_least_is_pinned(tile, monkeypatch):
    """TestDeterminantsOnce's guard drawings: no signs, and the least
    |det|, as pinned under every tile.  The vertex part stops at a block
    only where a triple is refused at the key, as the point near an
    arc's great circle is; otherwise the least is that of all the vertex
    triples and the table, as for the vertex near a half-circle's plane.
    The midpoint near an arc clears the margin."""
    monkeypatch.setattr(geom, "_TILE", tile)
    got = [(signs is None, least) for signs, least in (
        drawing_mod._orientation_signs(d, DEFAULT_TOL.general_position)
        for d, _ in _guard_drawings())]
    assert got == [(True, 5e-10), (True, 5e-10),
                   (False, 0.0005659505508607802)]


def _scalar_crossings(halves):
    """The scalar reference: half_circles_cross on every pair in order."""
    return [(i, j) for i, j in combinations(range(len(halves)), 2)
            if half_circles_cross(halves[i], halves[j])]


@pytest.mark.parametrize("tile", (1, 4, geom._TILE))
class TestHalfCircleChecks:
    """strength and validate_arrangement share the batched sweep."""

    def test_match_scalar_pair_loop(self, tile, monkeypatch, rng):
        monkeypatch.setattr(geom, "_TILE", tile)
        crossed = 0
        for k in (3, 5, 8, 12):
            config = random_config(k, rng)
            asg = random_assignment(config, rng)
            halves = half_circles(config, asg)
            pairs = _scalar_crossings(halves)
            assert strength(config, asg) == len(pairs)
            if pairs:
                crossed += 1
                i, j = pairs[0]
                with pytest.raises(ConstructionError,
                                   match=rf"half-circles {i} and {j} cross"):
                    validate_arrangement(config.base, asg.midpoints)
        assert crossed >= 3
        config, asg = hill_pairs(8)
        halves = half_circles(config, asg)
        assert _scalar_crossings(halves) == [] and strength(config, asg) == 0
        validate_arrangement(config.base, asg.midpoints)

    def test_same_circle_pair(self, tile, monkeypatch, rng):
        monkeypatch.setattr(geom, "_TILE", tile)
        pts = random_unit_points(5, rng)
        mids = random_unit_points(5, rng)
        pole = unit(np.cross(pts[1], pts[3]))
        mids[1], mids[3] = np.cross(pole, pts[1]), np.cross(pole, pts[3])
        config = double(pts)
        asg = make_assignment(config, mids)
        halves = half_circles(config, asg)
        with pytest.raises(DegenerateConfigurationError,
                           match="same great circle"):
            half_circles_cross(halves[1], halves[3])
        message = "edges 1 and 3 lie on the same great circle"
        with pytest.raises(DegenerateConfigurationError, match=message):
            strength(config, asg)
        with pytest.raises(ConstructionError, match=message) as err:
            validate_arrangement(config.base, asg.midpoints)
        # a degenerate arrangement is shrunk, not redrawn, by the blowup
        assert "general position" not in str(err.value)


def _cocktail(k, dist, rng):
    return build_cocktail_party(double(sample_points(k, dist, rng)))


def _outcome(counter, d, tol=None):
    """The counter's total, or the type and message of its refusal."""
    try:
        return counter(d, tol)
    except Exception as exc:
        return type(exc), str(exc)


def _near_circle(pts, i, j, m):
    """pts with point j moved to 0.2 rad from point i, and point m to 1e-6
    off their great circle, between them: |det| is about 2e-7, general
    position by default.  With i and j that close, the circles through two
    of i, j, m stay further from one great circle than a circle through m
    meets the circle (i, j) from m: a dead zone between the two refuses
    attribution before any pair of circles."""
    pts = pts.copy()
    pts[j] = unit(pts[i] + 0.2 * unit(np.cross(pts[i], pts[m])))
    pole = unit(np.cross(pts[i], pts[j]))
    pts[m] = unit(unit(pts[i] + pts[j]) + 1e-6 * pole)
    return pts


def _unchecked_cocktail(base, anti):
    """A matching-free drawing left unvalidated: the counter reads only its
    vertices and pairing."""
    k = len(base)
    pairing = {i: i + k for i in range(k)} | {i + k: i for i in range(k)}
    return Drawing(vertices=np.concatenate([base, anti]),
                   kind=DrawingKind.COCKTAIL_PARTY, uv=(), midpoints=(),
                   pairing=pairing)


@pytest.mark.parametrize("tile", (1, 7, geom._TILE))
class TestCirclePairCounter:
    """The tiled circle-pair counter against the scalar pair loop it
    replaced: equal totals, and equal refusals for the same first pair."""

    @pytest.fixture(scope="class")
    def small(self):
        """Drawings for k = 3..12 under both distributions, with the scalar
        loop's totals (computed once: it is the slow side)."""
        out = []
        for name in ("uniform", "cap"):
            rng = np.random.default_rng([77, len(name)])
            for k in range(3, 13):
                d = _cocktail(k, DISTRIBUTIONS[name], rng)
                out.append((k, d, circle_pair_count_reference(d)))
        return out

    def test_totals_equal_reference_and_closed_form(self, tile, monkeypatch,
                                                    small):
        monkeypatch.setattr(geom, "_TILE", tile)
        for k, d, want in small:
            assert want == k * (k - 1) * (k - 2) * (k - 3) // 4
            assert count_crossings_by_circle_pairs(d) == want

    def test_refusals_through_tolerances(self, tile, monkeypatch):
        """A wide dead zone refuses attribution, a wider one whole circle
        pairs; a general-position margin below the rounding of a unit
        dot product fails the shared-pair axis test."""
        monkeypatch.setattr(geom, "_TILE", tile)
        rng = np.random.default_rng(79)
        seen = set()
        for sign, margin in ((0.05, 0.1), (0.2, 0.3), (1e-18, 1e-17)):
            tol = ToleranceConfig(sign=sign, general_position=margin)
            for k in (5, 6, 9):
                d = _cocktail(k, DISTRIBUTIONS["uniform"], rng)
                want = _outcome(circle_pair_count_reference, d, tol)
                assert _outcome(count_crossings_by_circle_pairs, d,
                                tol) == want
                if isinstance(want, tuple):
                    seen.add(want[1].split(" on cycle")[0].split(" (")[0])
        assert seen == {"circle-pair attribution hit the dead zone",
                        "cycles", "circles through a shared pair fail to "
                        "meet on its axis"}

    @pytest.mark.parametrize("triple, message", [
        # circle (0,1) passes by point 2: first hit ((0,1), (2,3))
        ((0, 1, 2), "dead zone on cycle 9"),
        # circle (2,4) passes by point 1: first hit ((0,1), (2,4))
        ((1, 2, 4), "dead zone on cycle 0"),
    ])
    def test_dead_zone_on_either_cycle(self, tile, triple, message,
                                       monkeypatch):
        monkeypatch.setattr(geom, "_TILE", tile)
        pts = sample_points(6, DISTRIBUTIONS["uniform"],
                            np.random.default_rng(7))
        d = build_cocktail_party(double(_near_circle(pts, *triple)))
        tol = ToleranceConfig(sign=5e-6, general_position=1e-4)
        want = _outcome(circle_pair_count_reference, d, tol)
        assert want[0] is DegenerateConfigurationError
        assert want[1].endswith(message)
        assert _outcome(count_crossings_by_circle_pairs, d, tol) == want

    def test_same_great_circle(self, tile, monkeypatch):
        """Points 0, 1, 3 on one great circle: the second circle pair,
        ((0,1), (0,3)), is the first refused."""
        monkeypatch.setattr(geom, "_TILE", tile)
        pts = sample_points(6, DISTRIBUTIONS["uniform"],
                            np.random.default_rng(8))
        pts[3] = unit(pts[0] + pts[1])
        d = _unchecked_cocktail(pts, -pts)
        want = (DegenerateConfigurationError,
                "cycles (0, 1) and (0, 3) span the same great circle")
        assert _outcome(circle_pair_count_reference, d) == want
        assert _outcome(count_crossings_by_circle_pairs, d) == want

    def test_inexact_antipodes(self, tile, monkeypatch):
        """Partners that are not exact antipodes make a cycle's arcs
        overlap: an intersection can fall in two of them."""
        monkeypatch.setattr(geom, "_TILE", tile)
        rng = np.random.default_rng(80)
        outcomes = []
        for _ in range(30):
            k = int(rng.integers(4, 8))
            base = random_unit_points(k, rng)
            anti = -base + 0.6 * rng.normal(size=(k, 3))
            anti /= np.linalg.norm(anti, axis=1, keepdims=True)
            d = _unchecked_cocktail(base, anti)
            want = _outcome(circle_pair_count_reference, d)
            assert _outcome(count_crossings_by_circle_pairs, d) == want
            outcomes.append(want)
        assert (DegenerateConfigurationError,
                "intersection attributed to more than one arc") in outcomes
        assert any(isinstance(w, int) for w in outcomes)

    def test_independent_of_the_sweep(self, tile, monkeypatch):
        monkeypatch.setattr(geom, "_TILE", tile)
        d = _cocktail(7, DISTRIBUTIONS["uniform"], np.random.default_rng(9))

        def forbidden(*args, **kwargs):
            raise AssertionError("the circle-pair counter used the sweep")

        for name in ("frame_signs", "arc_frames", "_pack_drawing", "_sweep"):
            monkeypatch.setattr(drawing_mod, name, forbidden)
            monkeypatch.setattr(geom, name, forbidden, raising=False)
        assert count_crossings_by_circle_pairs(d) == 7 * 6 * 5 * 4 // 4


@pytest.mark.parametrize("tile", (97, geom._TILE))
@pytest.mark.parametrize("dist", ("uniform", "cap"))
def test_circle_pair_totals_at_k20_and_k30(tile, dist, monkeypatch):
    """The closed form on 190 and 435 circles.  A tile of 97 pairs splits
    the long rows into column chunks and groups the short ones; the scalar
    loop would take seconds per drawing here, and one pair per tile as
    long, so both stay with TestCirclePairCounter's k <= 12."""
    monkeypatch.setattr(geom, "_TILE", tile)
    rng = np.random.default_rng([78, len(dist)])
    for k in (20, 30):
        d = _cocktail(k, DISTRIBUTIONS[dist], rng)
        assert (count_crossings_by_circle_pairs(d)
                == k * (k - 1) * (k - 2) * (k - 3) // 4)


class TestValidationReportsFirstBadEdge:
    @pytest.mark.parametrize("tile", (1, geom._TILE))
    def test_structural_messages(self, tile, monkeypatch):
        monkeypatch.setattr(geom, "_TILE", tile)
        config, asg = hill_pairs(4)
        d = extend_to_complete(config, asg)
        assert d.uv[5].tolist() == [0, 7]
        hu, hv = d.uv[-1].tolist()
        arc, mid = [np.nan] * 3, d.midpoints[-1]
        cases = [
            ((3, 3), arc, r"edge \(3,3\) has invalid endpoints"),
            ((1, 0), arc, r"duplicate edge \(1,0\)"),
            ((0, 7), mid, r"half-circle edge \(0,7\) does not join"),
            ((hu, hv), 2.0 * mid,
             rf"half-circle edge \({hu},{hv}\) midpoint is not a unit"),
            ((hu, hv), arc,
             rf"matching edge \({hu},{hv}\) must be a half-circle"),
        ]
        for bad, m, message in cases:
            uv, mids = d.uv.copy(), d.midpoints.copy()
            uv[5], mids[5] = bad, m
            # a later fault must not be reported first
            uv[-2], mids[-2] = (-1, 2), arc
            with pytest.raises(ValueError, match=message):
                validate_drawing(Drawing(vertices=d.vertices, kind=d.kind,
                                         uv=uv, midpoints=mids,
                                         pairing=d.pairing))

    @pytest.mark.parametrize("duplicate, order, text", [
        (True, 1, "duplicate edge (1,0)"),
        (True, -1, "half-circle edge (2,6) midpoint is not a unit vector "
         "orthogonal to its endpoint"),
        (False, 1, "matching edge (1,5) must be a half-circle"),
        (False, -1, "half-circle edge (2,6) midpoint is not a unit vector "
         "orthogonal to its endpoint")],
        ids=["duplicate-forward", "duplicate-reversed", "forward",
             "reversed"])
    def test_duplicate_among_other_faults(self, duplicate, order, text):
        """Edge 3 repeats edge 0 as (1,0), half-circle (1,5) is an arc on
        its couple and half-circle (2,6) has a loose midpoint; the records
        run forward or reversed.  Repeated keys are found by a sort, and
        the first of each by np.unique where one repeats (with the
        duplicate), or the sort alone finds none (without it)."""
        d = extend_to_complete(*hill_pairs(4))
        assert d.uv[[0, 25, 26]].tolist() == [[0, 1], [1, 5], [2, 6]]
        uv, mids = d.uv.copy(), d.midpoints.copy()
        if duplicate:
            uv[3] = 1, 0
        mids[25], mids[26] = np.nan, 2.0 * mids[26]
        bad = Drawing(vertices=d.vertices, kind=d.kind, uv=uv[::order],
                      midpoints=mids[::order], pairing=d.pairing)
        with pytest.raises(ValueError) as err:
            validate_drawing(bad)
        assert str(err.value) == text

    def test_only_duplicate_is_the_last_edge(self, rng):
        """K_100 with its last record (98,99) replaced by (1,0): 4949
        distinct keys, and the duplicate is the last record."""
        d = _points_drawing(random_unit_points(100, rng))
        uv = d.uv.copy()
        uv[-1] = 1, 0
        bad = Drawing(vertices=d.vertices, kind=d.kind, uv=uv,
                      midpoints=d.midpoints)
        with pytest.raises(ValueError) as err:
            validate_drawing(bad)
        assert str(err.value) == "duplicate edge (1,0)"

    @pytest.mark.parametrize("tile", (1, geom._TILE))
    def test_vertex_on_curve(self, tile, monkeypatch, rng):
        monkeypatch.setattr(geom, "_TILE", tile)
        pts = random_unit_points(6, rng)
        pts[5] = unit(pts[2] + pts[3])      # inside edge 9 = (2,3)
        with pytest.raises(DegenerateConfigurationError,
                           match=r"vertex 5 lies on edge \(2,3\)"):
            complete_drawing_from_points(pts)


def _scalar_endpoint_error(A, B):
    """The error GeodesicArc raises for the first row it refuses."""
    for a, b in zip(A, B):
        try:
            GeodesicArc(a, b)
        except (ValueError, DegenerateConfigurationError) as exc:
            return type(exc), str(exc)
    return None


class TestBulkArcs:
    def test_frames_match_scalar_constructor(self, rng):
        """arc_frames computes GeodesicArc's frames, and require_arc_rows
        raises GeodesicArc's error for the first row it refuses."""
        A = random_unit_points(50, rng)
        B = random_unit_points(50, rng)
        require_arc_rows(A, B)
        for N, name in zip(arc_frames(A, B), ("normal", "wedge_u", "wedge_v")):
            ref = [getattr(GeodesicArc(a, b), name) for a, b in zip(A, B)]
            np.testing.assert_allclose(N, ref, atol=1e-15)
        for fault in range(18):
            A2, B2 = A.copy(), B.copy()
            rows = rng.choice(50, size=2, replace=False)
            A2[rows[0]] = (B2[rows[0]], -B2[rows[0]], 1.5 * A2[rows[0]])[
                fault % 3]
            B2[rows[1]] = (A2[rows[1]], -A2[rows[1]], 0.5 * B2[rows[1]])[
                fault // 3 % 3]
            want = _scalar_endpoint_error(A2, B2)
            with pytest.raises(want[0]) as err:
                require_arc_rows(A2, B2)
            assert str(err.value) == want[1]

    def test_first_offending_row_raises(self, rng):
        A = random_unit_points(6, rng)
        B = random_unit_points(6, rng)
        B[2] *= 2.0
        A[4] = -B[4]
        with pytest.raises(ValueError, match="not unit length"):
            require_arc_rows(A, B)
        B[2] /= 2.0
        with pytest.raises(DegenerateConfigurationError,
                           match="equal or antipodal"):
            require_arc_rows(A, B)
        # within one row, a non-unit endpoint is reported first
        A[4] *= 2.0
        with pytest.raises(ValueError, match="not unit length"):
            require_arc_rows(A, B)

    def test_rows_refused_are_the_scalar_ones(self, rng):
        """Under a norm margin below rounding, require_unit_rows and
        require_arc_rows refuse the first row require_unit and
        GeodesicArc refuse, with their texts: the bulk unit tests once
        took np.einsum's products, which round differently from v @ v
        for about a quarter of random unit rows."""
        tol = ToleranceConfig(norm=1e-20)

        def error(check, *args):
            try:
                check(*args, tol)
            except (ValueError, DegenerateConfigurationError) as exc:
                return type(exc), str(exc)

        def first_error(check, *rows):
            return next(filter(None, (error(check, *row)
                                      for row in zip(*rows))), None)

        refused = 0
        for _ in range(40):
            A = random_unit_points(6, rng)
            B = random_unit_points(6, rng)
            want = first_error(geom.require_unit, A)
            refused += want is not None
            assert error(geom.require_unit_rows, A) == want
            assert error(require_arc_rows, A, B) == first_error(GeodesicArc,
                                                                A, B)
        assert refused > 30

    @pytest.mark.parametrize("value", (np.nan, np.inf))
    def test_non_finite_rows_are_refused(self, value, rng):
        """Rows with a NaN or infinite coordinate are not unit vectors, in
        require_unit_rows, require_arc_rows and validation."""
        A = random_unit_points(6, rng)
        B = random_unit_points(6, rng)
        A[3, 1] = value
        with pytest.raises(ValueError, match="not unit length"):
            geom.require_unit_rows(A)
        with pytest.raises(ValueError, match="not unit length"):
            require_arc_rows(A, B)
        with pytest.raises(ValueError, match="not unit length"):
            require_arc_rows(B, A)
        d = complete_drawing_from_points(random_unit_points(8, rng))
        vertices = d.vertices.copy()
        vertices[3, 1] = value
        with pytest.raises(ValueError, match="not unit length"):
            validate_drawing(Drawing(vertices=vertices, kind=d.kind,
                                     uv=d.uv, midpoints=d.midpoints))

    def test_document_reports_first_bad_record(self):
        config, asg = hill_pairs(3)
        doc = drawing_to_doc(extend_to_complete(config, asg))
        # arcs come first, then the half-circles
        assert doc["edges"][0]["curve"] == "arc"
        assert doc["edges"][-1]["curve"] == "half_circle"
        antipodal_arc = {"u": 0, "v": 3, "curve": "arc"}

        early_arc = json.loads(json.dumps(doc))
        early_arc["edges"][0] = antipodal_arc
        early_arc["edges"][-1]["midpoint"] = None
        with pytest.raises(DegenerateConfigurationError,
                           match="equal or antipodal"):
            doc_to_drawing(early_arc)

        early_record = json.loads(json.dumps(doc))
        early_record["edges"][0]["curve"] = "spline"
        early_record["edges"][5] = antipodal_arc
        with pytest.raises(DocumentError, match=r"edges\[0\]: curve"):
            doc_to_drawing(early_record)


def test_no_np_cross_and_one_row_checks_only_on_refusals(monkeypatch):
    """Every cross product goes through geom.cross, and geom's row checks
    (require_unit_rows, require_arc_rows, repair_midpoints) check a row on
    its own, with geom.require_unit, only where they refuse it."""
    crossed, checked = [], []

    def no_cross(*args, **kw):
        crossed.append(args)
        raise AssertionError("np.cross called")

    require_unit = geom.require_unit

    def counting(v, *args, **kw):
        checked.append(v)
        return require_unit(v, *args, **kw)

    monkeypatch.setattr(np, "cross", no_cross)
    monkeypatch.setattr(geom, "require_unit", counting)
    for seed in SEEDS.values():
        seed.cache_clear()
    rng = np.random.default_rng(61)

    for seed in SEEDS.values():
        seed()
    assert checked == []
    config, asg = recursive_construct(
        SEEDS["four"](), default_plan_chain([(2, 1, 1, 1), (2, 1, 1, 1, 1)]),
        rng)
    d = extend_to_complete(config, asg)
    assert verify(d).passed and len(count_crossings(d).pairs)
    verify(delete_vertex(d, 0))
    verify(add_random_apex(config, asg, rng))
    assert strength(*perturb(config, asg, 1e-6, rng)) == 0

    cocktail = build_cocktail_party(random_config(5, rng))
    assert count_crossings(cocktail).total == 30
    assert count_crossings_by_circle_pairs(cocktail) == 30
    config = double(cocktail.vertices[:5])
    partial = extend_partial_matching(config, random_assignment(config, rng),
                                      [0, 2])
    assert verify(partial).passed and len(count_crossings(partial).pairs)
    doc = drawing_to_doc(partial)
    loose = [2.0 * x + 1e-3 for x in doc["edges"][-1]["midpoint"]]
    doc["edges"][-1]["midpoint"] = loose
    reread = doc_to_drawing(doc)
    export_svg(partial)
    export_svg(Drawing(vertices=reread.vertices, kind=reread.kind,
                       uv=reread.uv, midpoints=np.where(
                           reread.half[:, None], 3.0 * reread.midpoints,
                           np.nan), pairing=dict(reread.pairing)))
    complete_drawing_from_points(sample_points(12, DistributionSpec(), rng))
    assert checked == [] and crossed == []

    # refused witnesses: a parallel one raises from the bulk fix, a zero one
    # has its row checked alone
    doc["edges"][-1]["midpoint"] = list(partial.vertices[2])
    with pytest.raises(DegenerateConfigurationError, match="parallel"):
        doc_to_drawing(doc)
    assert checked == []
    doc["edges"][-1]["midpoint"] = [0.0, 0.0, 0.0]
    with pytest.raises(DocumentError, match="zero vector"):
        doc_to_drawing(doc)
    assert len(checked) == 1 and crossed == []


@pytest.mark.parametrize("make", ("hill_k6", "points_k20"))
def test_reversed_arc_rows_still_count_from_signs(make):
    """Every arc stored as (v, u), half-circles as they were: the sign
    counter reads each arc in its row's order, with no row sort, and its
    arc rule counts alike from either end, so it still counts, with the
    forward drawing's total and per-edge counts and the sweep's."""
    if make == "hill_k6":
        d = extend_to_complete(*hill_pairs(6))
    else:
        d = complete_drawing_from_points(
            random_unit_points(20, np.random.default_rng(2025)))
    back = Drawing(vertices=d.vertices, kind=d.kind,
                   uv=np.where(d.half[:, None], d.uv, d.uv[:, ::-1]),
                   midpoints=d.midpoints, pairing=dict(d.pairing), tol=d.tol)
    arcs = back.uv[~back.half]
    assert len(arcs) and (arcs[:, 0] > arcs[:, 1]).all()
    validate_drawing(back)
    per_edge = drawing_mod._sign_counts(back, back.tol)
    assert per_edge is not None
    forward, rep, sweep = (count_crossings(d), count_crossings(back),
                           _sweep_report(back))
    assert np.array_equal(per_edge, forward.per_edge)
    for other in (forward, sweep):
        assert rep.total == other.total
        assert np.array_equal(rep.per_edge, other.per_edge)
        assert np.array_equal(rep.per_vertex, other.per_vertex)


@pytest.mark.parametrize("nan_columns", ((0,), (1,), (2,), (0, 2)))
def test_a_partly_nan_midpoint_row_is_a_half_circle(nan_columns):
    """Drawing.half reads a row as an arc only where all three components
    are NaN: a couple's half-circle whose midpoint row is partly NaN is a
    half-circle with a loose witness, which validation refuses, while an
    all-NaN row on that couple is an arc, refused as a matching edge."""
    d = extend_to_complete(*hill_pairs(4))
    e = int(np.flatnonzero(d.half)[1])
    u, v = d.uv[e].tolist()
    for columns, is_half, message in (
            (list(nan_columns), True,
             rf"^half-circle edge \({u},{v}\) midpoint is not a unit vector "
             r"orthogonal to its endpoint$"),
            ([0, 1, 2], False,
             rf"^matching edge \({u},{v}\) must be a half-circle$")):
        mids = d.midpoints.copy()
        mids[e, columns] = np.nan
        bad = _fresh(Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                             midpoints=mids, pairing=dict(d.pairing)))
        assert bool(bad.half[e]) is is_half
        assert bad.half.sum() == d.half.sum() - (not is_half)
        with pytest.raises(ValueError, match=message):
            validate_drawing(bad)
