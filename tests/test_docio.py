import io
import json

import numpy as np
import pytest

from hilldraw.construct import BlowupPlan, blowup, seed_single
from hilldraw.docio import (DocumentError, doc_to_drawing, drawing_to_doc,
                            dump_drawing, load_drawing, report_to_doc,
                            write_json)
from hilldraw.drawing import (complete_drawing_from_points, count_crossings,
                              extend_to_complete, verify)
from hilldraw.geom import (DegenerateConfigurationError, HalfCircle,
                           ToleranceConfig)
from hilldraw.montecarlo import DistributionSpec, sample_points


@pytest.fixture(scope="module")
def hill_k4():
    config, asg = blowup(seed_single(), BlowupPlan(multiplicities=(4,)),
                         np.random.default_rng(7))
    return extend_to_complete(config, asg, provenance={"rng_seed": 7})


class TestRoundTrip:
    def test_bit_exact_vertices_and_counts(self, hill_k4, tmp_path):
        path = tmp_path / "k8.json"
        dump_drawing(hill_k4, path)
        loaded = load_drawing(path)
        assert np.array_equal(loaded.vertices, hill_k4.vertices)
        r1 = count_crossings(hill_k4)
        r2 = count_crossings(loaded)
        assert r1 == r2

    def test_half_circle_witness_bits_survive(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        loaded = doc_to_drawing(doc)
        assert np.array_equal(loaded.uv, hill_k4.uv)
        assert np.array_equal(loaded.midpoints, hill_k4.midpoints,
                              equal_nan=True)
        assert loaded.half.sum() == 4

    def test_json_text_roundtrip(self, hill_k4):
        text = json.dumps(drawing_to_doc(hill_k4))
        loaded = doc_to_drawing(json.loads(text))
        assert count_crossings(loaded).total == 18

    def test_provenance_and_kind_survive(self, hill_k4, tmp_path):
        path = tmp_path / "k8.json"
        dump_drawing(hill_k4, path)
        loaded = load_drawing(path)
        assert loaded.kind == hill_k4.kind
        assert loaded.provenance["rng_seed"] == 7

    def test_stdout_and_stdin(self, hill_k4, tmp_path, capsys, monkeypatch):
        """write_json without a path prints what dump_drawing writes, and
        load_drawing reads '-' from stdin."""
        path = tmp_path / "k8.json"
        dump_drawing(hill_k4, path)
        write_json(drawing_to_doc(hill_k4))
        text = capsys.readouterr().out
        assert text == path.read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        loaded = load_drawing("-")
        assert drawing_to_doc(loaded) == drawing_to_doc(hill_k4)

    def test_random_complete_roundtrip(self, rng, tmp_path):
        pts = rng.normal(size=(7, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        d = complete_drawing_from_points(pts)
        path = tmp_path / "r.json"
        dump_drawing(d, path)
        assert count_crossings(load_drawing(path)) == count_crossings(d)


class TestValidation:
    def test_non_unit_vertex(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        doc["vertices"][0] = [1.0, 1.0, 0.0]
        with pytest.raises(DocumentError, match="unit"):
            doc_to_drawing(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_vertex(self, value):
        """A K_8 document with a NaN vertex once validated and counted 17
        crossings instead of 26."""
        pts = sample_points(8, DistributionSpec(), np.random.default_rng(1))
        doc = drawing_to_doc(complete_drawing_from_points(pts))
        assert count_crossings(doc_to_drawing(doc)).total == 26
        doc["vertices"][3][1] = value
        text = json.dumps(doc)
        with pytest.raises(DocumentError,
                           match=r"vertices\[3\]: not a unit vector"):
            doc_to_drawing(json.loads(text))

    # a JSON integer too large for a float once escaped as OverflowError
    @pytest.mark.parametrize("value", [True, False, "1", None,
                                       pytest.param(-10 ** 400, id="1e400")])
    def test_vertices_must_be_json_numbers(self, hill_k4, value):
        doc = drawing_to_doc(hill_k4)
        doc["vertices"][2][0] = value
        with pytest.raises(DocumentError,
                           match=r"vertices\[2\]: expected \[x, y, z\]"):
            doc_to_drawing(doc)

    def test_midpoints_must_be_json_numbers(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        i = next(i for i, rec in enumerate(doc["edges"])
                 if rec["curve"] == "half_circle")
        doc["edges"][i]["midpoint"][0] = True
        with pytest.raises(DocumentError, match=rf"edges\[{i}\]: half_circle "
                           r"needs a \[x, y, z\] midpoint"):
            doc_to_drawing(doc)

    @pytest.mark.parametrize("value", [10 ** 400, float("nan"), float("inf"),
                                       -float("inf")],
                             ids=["1e400", "nan", "inf", "-inf"])
    def test_midpoints_must_be_finite(self, hill_k4, value):
        doc = drawing_to_doc(hill_k4)
        i = next(i for i, rec in enumerate(doc["edges"])
                 if rec["curve"] == "half_circle")
        doc["edges"][i]["midpoint"][0] = value
        text = json.dumps(doc)
        with pytest.raises(DocumentError, match=rf"edges\[{i}\]: half_circle "
                           r"needs a \[x, y, z\] midpoint"):
            doc_to_drawing(json.loads(text))

    def test_zero_midpoint_is_its_records_error(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        i = [i for i, rec in enumerate(doc["edges"])
             if rec["curve"] == "half_circle"][1]
        doc["edges"][i]["midpoint"] = [0, 0, 0]
        with pytest.raises(DocumentError, match=rf"^edges\[{i}\]: cannot "
                           "normalize a zero vector$"):
            doc_to_drawing(doc)

    def test_missing_pairing_for_matching_kind(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        doc["kind"] = "cocktail_party"
        doc["pairing"] = None
        with pytest.raises(DocumentError, match="pairing"):
            doc_to_drawing(doc)

    def test_unknown_kind(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        doc["kind"] = "triangular"
        with pytest.raises(DocumentError, match="kind"):
            doc_to_drawing(doc)

    def test_bad_format_header(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        doc["format"] = "something/else"
        with pytest.raises(DocumentError, match="format"):
            doc_to_drawing(doc)

    def test_half_circle_without_midpoint(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        for rec in doc["edges"]:
            if rec["curve"] == "half_circle":
                del rec["midpoint"]
                break
        with pytest.raises(DocumentError, match="midpoint"):
            doc_to_drawing(doc)

    def test_half_circle_on_unpaired_vertices(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        for rec in doc["edges"]:
            if rec["curve"] == "half_circle":
                rec["v"] = (rec["v"] + 1) % len(doc["vertices"])
                break
        with pytest.raises(DocumentError):
            doc_to_drawing(doc)

    def test_loose_midpoints_are_orthonormalized(self, hill_k4):
        """A midpoint that is not unit, or not orthogonal to its endpoint,
        is fixed by HalfCircle's arithmetic; every other row keeps its
        bits."""
        doc = drawing_to_doc(hill_k4)
        rec = doc["edges"][-2]
        p = np.array(doc["vertices"][rec["u"]])
        raw = 2.0 * np.array(rec["midpoint"]) + 0.1 * p
        rec["midpoint"] = raw.tolist()
        loaded = doc_to_drawing(doc)
        want = hill_k4.midpoints.copy()
        want[-2] = HalfCircle(p, raw).m
        assert np.array_equal(loaded.midpoints, want, equal_nan=True)

    def test_degenerate_midpoint_in_record_order(self, hill_k4):
        """A midpoint along its endpoint is refused as its record's error:
        after an equal or antipodal arc before it, before a bad record
        after it."""
        doc = drawing_to_doc(hill_k4)
        rec = doc["edges"][-3]
        rec["midpoint"] = doc["vertices"][rec["u"]]
        doc["edges"][-1]["curve"] = "spline"
        with pytest.raises(DegenerateConfigurationError, match="parallel"):
            doc_to_drawing(doc)
        u, v = hill_k4.uv[-1].tolist()
        doc["edges"][0] = {"u": u, "v": v, "curve": "arc"}
        with pytest.raises(DegenerateConfigurationError,
                           match="equal or antipodal"):
            doc_to_drawing(doc)

    @pytest.mark.parametrize("value", [0.7, 1.0, True, "1"])
    def test_endpoints_must_be_json_integers(self, hill_k4, value):
        doc = drawing_to_doc(hill_k4)
        doc["edges"][3]["v"] = value
        with pytest.raises(DocumentError, match=r"edges\[3\]: bad endpoints"):
            doc_to_drawing(doc)

    @pytest.mark.parametrize("value", [0.7, 1.0, True, "1"])
    def test_pairing_must_be_json_integers(self, hill_k4, value):
        doc = drawing_to_doc(hill_k4)
        doc["pairing"][1][0] = value
        with pytest.raises(DocumentError,
                           match=r"pairing\[1\]: expected \[i, j\]"):
            doc_to_drawing(doc)

    def test_edge_census_enforced(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        doc["edges"] = doc["edges"][:-1]
        with pytest.raises(DocumentError, match="edges|invalid"):
            doc_to_drawing(doc)

    def test_garbage_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DocumentError, match="JSON"):
            load_drawing(path)

    def test_tolerance_override(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        loose = ToleranceConfig(norm=1e-6)
        loaded = doc_to_drawing(doc, loose)
        assert loaded.tol.norm == 1e-6

    def test_partial_tolerances_merge_over_defaults(self, hill_k4):
        doc = drawing_to_doc(hill_k4)
        doc["tolerances"] = {"general_position": 1e-11}
        loaded = doc_to_drawing(doc)
        assert loaded.tol == ToleranceConfig(general_position=1e-11)
        for missing in (None, {}):
            doc["tolerances"] = missing
            assert doc_to_drawing(doc).tol == ToleranceConfig()

    @pytest.mark.parametrize("tolerances, message", [
        ({"general_position": 1e-11, "slack": 1.0}, "unknown tolerance keys"),
        ({"sign": -1.0}, "strictly positive"),
        ({"sign": "tiny"}, "must be numbers"),
        ({"sign": "1e-13"}, "must be numbers"),
        ({"norm": True}, "must be numbers"),
        ({"sign": [1e-12]}, "must be numbers"),
        ({"general_position": float("inf")}, "positive and finite"),
        ({"general_position": float("nan")}, "positive and finite"),
        ({"general_position": 10 ** 400}, "must be finite"),
        ({"sign": 1e-8}, "smaller than the general-position"),
        ([1e-12], "must be an object"),
    ])
    def test_invalid_tolerances_raise(self, hill_k4, tolerances, message):
        doc = drawing_to_doc(hill_k4)
        doc["tolerances"] = tolerances
        with pytest.raises(DocumentError, match=f"tolerances: .*{message}"):
            doc_to_drawing(doc)


class TestReportDoc:
    def test_shape_and_pairs(self, hill_k4):
        report = verify(hill_k4)
        doc = report_to_doc(report, include_pairs=True)
        assert doc["format"] == "hilldraw/report/v1"
        assert doc["passed"] is True
        assert len(doc["crossing_pairs"]) == 18
