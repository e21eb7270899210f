import numpy as np
import pytest

from hilldraw.construct import BlowupPlan, blowup, seed_four, seed_single
from hilldraw.drawing import (Drawing, DrawingKind, build_cocktail_party,
                              double, extend_to_complete)
from hilldraw.svg import export_svg

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
