import numpy as np
import pytest

from hilldraw.construct import BlowupPlan, blowup, seed_four, seed_single
from hilldraw.drawing import (Drawing, DrawingKind, build_cocktail_party,
                              complete_drawing_from_points, double,
                              extend_to_complete)
from hilldraw.geom import DegenerateConfigurationError
from hilldraw.montecarlo import DistributionSpec, sample_points
from hilldraw.svg import _samples, export_svg

from .oracles import GeodesicArc, HalfCircle, sample_curve

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def test_octahedral_drawing_renders_all_edges():
    d = build_cocktail_party(double([X, Y, Z]))
    text = export_svg(d)
    assert text.startswith("<svg")
    assert text.count("<polyline") >= 12
    assert "crossings: 0" in text


def test_hill_drawing_annotates_total():
    config, asg = blowup(seed_single(), BlowupPlan(multiplicities=(4,)),
                         np.random.default_rng(7))
    text = export_svg(extend_to_complete(config, asg))
    assert "crossings: 18" in text


def test_seed_four_arrangement_renders_four_halves():
    arr = seed_four()
    verts = np.concatenate([arr.points, -arr.points], axis=0)
    pairing = {i: i + 4 for i in range(4)} | {i + 4: i for i in range(4)}
    d = Drawing(vertices=verts, kind=DrawingKind.PARTIAL_MATCHING,
                uv=[(i, i + 4) for i in range(4)],
                midpoints=arr.midpoints, pairing=pairing)
    text = export_svg(d, crossings=0)
    assert text.count("<polyline") >= 4
    assert text.count("<circle") >= 8 + 2  # vertices plus the two disks


def test_empty_edge_list_still_valid_svg():
    d = Drawing(vertices=np.stack([X, Y, Z]), kind=DrawingKind.COMPLETE,
                uv=(), midpoints=(), pairing={})
    text = export_svg(d)
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "crossings: 0" in text
    assert text.count("<polyline") == 0


def test_vertices_color_coded_by_pair():
    config, asg = blowup(seed_single(), BlowupPlan(multiplicities=(3,)),
                         np.random.default_rng(7))
    d = extend_to_complete(config, asg)
    text = export_svg(d)
    # 6 vertex dots plus 2 disk outlines
    assert text.count("<circle") == 8


def test_rejects_unknown_projection():
    d = Drawing(vertices=np.stack([X, Y, Z]), kind=DrawingKind.COMPLETE,
                uv=(), midpoints=(), pairing={})
    with pytest.raises(ValueError):
        export_svg(d, projection="stereographic")


def test_rejects_coarse_sampling():
    d = Drawing(vertices=np.stack([X, Y, Z]), kind=DrawingKind.COMPLETE,
                uv=(), midpoints=(), pairing={})
    with pytest.raises(ValueError):
        export_svg(d, segments_per_edge=16)


def _hill_k4():
    config, asg = blowup(seed_single(), BlowupPlan(multiplicities=(4,)),
                         np.random.default_rng(7))
    return extend_to_complete(config, asg)


def _unvalidated(d, vertices=None, midpoints=None):
    """A copy of d's arrays with some replaced, never validated."""
    return Drawing(vertices=d.vertices if vertices is None else vertices,
                   kind=d.kind, uv=d.uv,
                   midpoints=d.midpoints if midpoints is None else midpoints,
                   pairing=dict(d.pairing))


def test_validated_drawing_builds_no_curve_objects(monkeypatch):
    d = _hill_k4()
    built = []
    for cls in (GeodesicArc, HalfCircle):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kw):
            built.append(_name)
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counting)
    export_svg(d)
    assert built == []


@pytest.mark.parametrize("make", [
    lambda: build_cocktail_party(double([X, Y, Z])),
    _hill_k4,
    lambda: complete_drawing_from_points(sample_points(
        12, DistributionSpec(), np.random.default_rng(3))),
], ids=["octahedron", "hill-k4", "random-K12"])
def test_samples_are_the_scalar_curves_points(make):
    """Bit for bit what point_at gives at the same parameters."""
    d = make()
    want = [sample_curve(HalfCircle(d.vertices[u], m) if h else
                         GeodesicArc(d.vertices[u], d.vertices[v]), 64)
            for (u, v), h, m in zip(d.uv, d.half, d.midpoints)]
    assert np.array_equal(_samples(d, 64), np.array(want))


class TestRefusals:
    """export_svg refuses what the curve constructors refuse, with their
    texts, on drawings that never went through validate_drawing."""

    def test_non_unit_arc_endpoint(self):
        d = _hill_k4()
        verts = d.vertices.copy()
        v = int(d.uv[~d.half][0, 1])
        verts[v] *= 1.5
        with pytest.raises(ValueError, match=r"^vector \[.*\] is not unit "
                           r"length within tolerance 1e-12$"):
            export_svg(_unvalidated(d, vertices=verts), crossings=0)

    def test_non_unit_half_circle_endpoint(self):
        d = build_cocktail_party(double([X, Y, Z]))
        verts = d.vertices.copy()
        verts[0] = [2.0, 0.0, 0.0]
        d = Drawing(vertices=verts, kind=DrawingKind.PARTIAL_MATCHING,
                    uv=[(0, 3)], midpoints=[Y], pairing=dict(d.pairing))
        with pytest.raises(ValueError, match=r"^vector \[2.0, 0.0, 0.0\] is "
                           r"not unit length within tolerance 1e-12$"):
            export_svg(d, crossings=0)

    def test_antipodal_arc_endpoints(self):
        d = build_cocktail_party(double([X, Y, Z]))
        d = Drawing(vertices=d.vertices, kind=DrawingKind.COMPLETE,
                    uv=[(0, 1), (0, 3)], midpoints=np.full((2, 3), np.nan),
                    pairing={})
        with pytest.raises(DegenerateConfigurationError,
                           match="^arc endpoints are equal or antipodal "
                                 "within tolerance$"):
            export_svg(d, crossings=0)

    def test_witness_parallel_to_endpoint(self):
        d = _hill_k4()
        mids = d.midpoints.copy()
        e = int(np.flatnonzero(d.half)[1])
        mids[e] = 2.0 * d.vertices[d.uv[e, 0]]
        with pytest.raises(DegenerateConfigurationError,
                           match="^midpoint witness is parallel to the "
                                 "endpoint$"):
            export_svg(_unvalidated(d, midpoints=mids), crossings=0)

    def test_arc_fault_reported_before_half_circle_fault(self):
        """The one order that differs from checking edge by edge: a fault
        of a later arc comes before one of an earlier half-circle."""
        d = _hill_k4()
        order = np.argsort(~d.half, kind="stable")
        uv, mids = d.uv[order], d.midpoints[order].copy()
        mids[0] = d.vertices[uv[0, 0]]
        verts = d.vertices.copy()
        verts[uv[-1, 1]] *= 1.5
        d = Drawing(vertices=verts, kind=d.kind, uv=uv, midpoints=mids,
                    pairing=dict(d.pairing))
        assert d.half[0] and not d.half[-1]
        with pytest.raises(ValueError, match="not unit length"):
            export_svg(d, crossings=0)

    def test_zero_witness(self):
        d = _hill_k4()
        mids = d.midpoints.copy()
        mids[np.flatnonzero(d.half)[0]] = 0.0
        with pytest.raises(ValueError,
                           match="^cannot normalize a zero vector$"):
            export_svg(_unvalidated(d, midpoints=mids), crossings=0)


def test_loose_witness_drawn_as_repaired_half_circle():
    d = _hill_k4()
    e = int(np.flatnonzero(d.half)[2])
    p, m = d.vertices[d.uv[e, 0]], d.midpoints[e]
    loose = d.midpoints.copy()
    # the witness turned by 0.5 rad about p, scaled and tilted towards p
    loose[e] = 3.0 * (np.cos(0.5) * m + np.sin(0.5) * np.cross(p, m)) \
        + 0.25 * p
    repaired = d.midpoints.copy()
    repaired[e] = HalfCircle(p, loose[e]).m
    assert not np.array_equal(repaired[e], m)
    text = export_svg(_unvalidated(d, midpoints=loose), crossings=18)
    assert text == export_svg(_unvalidated(d, midpoints=repaired),
                              crossings=18)
    assert text != export_svg(d)
