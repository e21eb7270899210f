import io
import json

import numpy as np
import pytest

from hilldraw.construct import BlowupPlan, blowup, seed_single
from hilldraw.docio import (DocumentError, doc_to_drawing, drawing_to_doc,
                            dump_drawing, load_drawing, report_to_doc,
                            write_json)
from hilldraw.drawing import (build_cocktail_party,
                              complete_drawing_from_points, count_crossings,
                              extend_partial_matching, extend_to_complete,
                              verify)
from hilldraw.geom import DegenerateConfigurationError, ToleranceConfig
from hilldraw.montecarlo import DistributionSpec, sample_points

from .oracles import HalfCircle, doc_to_drawing_reference


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



def _set(**fields):
    return lambda rec: rec.update(fields)


def _drop(key):
    return lambda rec: rec.__delitem__(key)


def _mid(value):
    return _set(curve="half_circle", midpoint=value)


_MIDPOINT = "half_circle needs a [x, y, z] midpoint"
# a fault written into one edge record of the k = 4 Hill document, and the
# message its record gets; records 0 and 13 are arcs, record 27 the
# half-circle (3, 7)
EDGE_FAULTS = {
    "list": (lambda rec: [rec["u"], rec["v"]], "expected an object"),
    "bool-u": (_set(u=True), "bad endpoints"),
    "float-v": (_set(v=1.0), "bad endpoints"),
    "str-u": (_set(u="0"), "bad endpoints"),
    "missing-v": (_drop("v"), "bad endpoints"),
    "huge-u": (_set(u=10 ** 30), "endpoint out of range"),
    "v-is-n": (_set(v=8), "endpoint out of range"),
    "negative-u": (_set(u=-1), "endpoint out of range"),
    "u-equals-v": (lambda rec: rec.update(v=rec["u"]),
                   "endpoint out of range"),
    "curve": (_set(curve="spline"),
              "curve must be 'arc' or 'half_circle', got 'spline'"),
    "missing-curve": (_drop("curve"),
                      "curve must be 'arc' or 'half_circle', got None"),
    "midpoint-missing": (_set(curve="half_circle", midpoint=None), _MIDPOINT),
    "midpoint-length": (_mid([1.0, 0.0]), _MIDPOINT),
    "midpoint-long": (_mid([1.0, 0.0, 0.0, 0.0]), _MIDPOINT),
    "midpoint-object": (_mid({"x": 1.0}), _MIDPOINT),
    "midpoint-str": (_mid([0.0, "1", 0.0]), _MIDPOINT),
    "midpoint-bool": (_mid([True, 0.0, 0.0]), _MIDPOINT),
    "midpoint-nested": (_mid([[1.0], 0.0, 0.0]), _MIDPOINT),
    "midpoint-nan": (_mid([0.0, 0.0, float("nan")]), _MIDPOINT),
    "midpoint-inf": (_mid([0.0, -float("inf"), 0.0]), _MIDPOINT),
    "midpoint-1e400": (_mid([0.0, 0.0, 10 ** 400]), _MIDPOINT),
    "unpaired": (lambda rec: rec.update(v=(rec["u"] + 1) % 8,
                                        curve="half_circle",
                                        midpoint=[0.0, 0.0, 1.0]),
                 "half_circle joins an unpaired couple"),
}
_NORM = "not a unit vector within tolerance 1e-12"
_XYZ = "expected [x, y, z]"
VERTEX_FAULTS = {
    "str": (lambda row: "1,0,0", _XYZ),
    "object": (lambda row: {"x": 1.0}, _XYZ),
    "short": (lambda row: row[:2], _XYZ),
    "long": (lambda row: row + [0.0], _XYZ),
    "bool": (lambda row: [True, 0, 0], _XYZ),
    "none": (lambda row: [row[0], None, row[2]], _XYZ),
    "1e400": (lambda row: [row[0], row[1], -10 ** 400], _XYZ),
    "non-unit": (lambda row: [1.0, 1.0, 0.0], _NORM),
    "zero": (lambda row: [0, 0, 0], _NORM),
    "nan": (lambda row: [row[0], float("nan"), row[2]], _NORM),
    "inf": (lambda row: [float("inf"), row[1], row[2]], _NORM),
}


def _fault(table, rows, i, name):
    change, _ = table[name]
    out = change(rows[i])
    if out is not None:
        rows[i] = out


def _raises(doc) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        doc_to_drawing(doc)
    return info.type, str(info.value)


class TestFirstOffender:
    """The record or vertex row named, and its message, for every fault at
    the first, a middle and the last position, for two faults in one
    document and for an equal or antipodal arc before a bad record.  The
    table was taken from the record-by-record parser."""

    @pytest.mark.parametrize("name", EDGE_FAULTS)
    @pytest.mark.parametrize("i", (0, 13, 27))
    def test_edge_fault(self, hill_k4, name, i):
        doc = drawing_to_doc(hill_k4)
        _fault(EDGE_FAULTS, doc["edges"], i, name)
        assert _raises(doc) == (DocumentError,
                                f"edges[{i}]: {EDGE_FAULTS[name][1]}")

    @pytest.mark.parametrize("first, second, i", [
        ("bool-u", "curve", 3), ("curve", "bool-u", 3),
        ("midpoint-nan", "list", 5), ("list", "midpoint-nan", 5),
        ("unpaired", "v-is-n", 20), ("v-is-n", "unpaired", 20),
        ("curve", "missing-v", 24), ("midpoint-1e400", "str-u", 25)])
    def test_earlier_fault_wins(self, hill_k4, first, second, i):
        """first at record i, second at a later record."""
        doc = drawing_to_doc(hill_k4)
        _fault(EDGE_FAULTS, doc["edges"], i, first)
        _fault(EDGE_FAULTS, doc["edges"], i + 2, second)
        assert _raises(doc) == (DocumentError,
                                f"edges[{i}]: {EDGE_FAULTS[first][1]}")

    def test_two_faults_in_one_record(self, hill_k4):
        """Checks run in order: type, range, curve, midpoint, couple."""
        for fields, message in [
            ({"u": True, "v": 99, "curve": "spline"}, "bad endpoints"),
            ({"v": 99, "curve": "spline"}, "endpoint out of range"),
            ({"v": 1, "curve": "spline"}, "endpoint out of range"),
            ({"curve": "spline", "midpoint": None},
             "curve must be 'arc' or 'half_circle', got 'spline'"),
            ({"v": 2, "curve": "half_circle", "midpoint": [1.0]},
             _MIDPOINT),
        ]:
            doc = drawing_to_doc(hill_k4)
            doc["edges"][9].update(fields)
            assert _raises(doc) == (DocumentError, f"edges[9]: {message}")

    @pytest.mark.parametrize("name", ("list", "curve", "midpoint-nan",
                                      "unpaired"))
    def test_antipodal_arc_comes_first(self, hill_k4, name):
        """An equal or antipodal arc before the first bad record is refused
        first; one after it is not reached."""
        doc = drawing_to_doc(hill_k4)
        _fault(EDGE_FAULTS, doc["edges"], 20, name)
        doc["edges"][6] = {"u": 1, "v": 5, "curve": "arc"}
        kind, text = _raises(doc)
        assert kind is DegenerateConfigurationError
        assert "equal or antipodal" in text
        doc["edges"][6] = {"u": 1, "v": 2, "curve": "arc"}
        doc["edges"][22] = {"u": 2, "v": 2 + 4, "curve": "arc"}
        assert _raises(doc) == (DocumentError,
                                f"edges[20]: {EDGE_FAULTS[name][1]}")

    @pytest.mark.parametrize("fault", ["duplicate", "census", "provenance",
                                       "antipodes"])
    def test_antipodal_arc_before_the_drawing_checks(self, hill_k4, fault):
        """Good records with an antipodal arc: the arc is refused before
        the provenance and validate_drawing's checks."""
        doc = drawing_to_doc(hill_k4)
        doc["edges"][6] = {"u": 1, "v": 5, "curve": "arc"}
        if fault == "duplicate":
            doc["edges"][9] = dict(doc["edges"][2])
        elif fault == "census":
            del doc["edges"][20]
        elif fault == "provenance":
            doc["provenance"] = [1]
        else:
            doc["vertices"][7][0] = np.nextafter(doc["vertices"][7][0], 2.0)
        kind, text = _raises(doc)
        assert kind is DegenerateConfigurationError
        assert "equal or antipodal" in text
        doc["edges"][6] = {"u": 1, "v": 2, "curve": "arc"}
        assert _raises(doc)[0] is DocumentError

    def test_zero_midpoint_against_a_later_fault(self, hill_k4):
        """The repair's error is its record's, and records order it with
        the other checks."""
        doc = drawing_to_doc(hill_k4)
        doc["edges"][25]["midpoint"] = [0, 0, 0]
        _fault(EDGE_FAULTS, doc["edges"], 26, "curve")
        assert _raises(doc) == (DocumentError, "edges[25]: cannot normalize "
                                "a zero vector")
        _fault(EDGE_FAULTS, doc["edges"], 24, "curve")
        assert _raises(doc) == (DocumentError,
                                f"edges[24]: {EDGE_FAULTS['curve'][1]}")

    @pytest.mark.parametrize("faults, message", [
        ({1: [0, 4.0], 2: [2, 9]}, "pairing[1]: expected [i, j]"),
        ({1: [2, 9], 2: [0, 4.0]}, "pairing[1]: invalid vertex indices"),
        ({1: [1, 1], 3: "0,4"}, "pairing[1]: invalid vertex indices"),
        ({2: [0, 5], 3: [True, 7]}, "pairing[2]: vertex paired twice"),
        ({0: [3, 7, 1]}, "pairing[0]: expected [i, j]"),
        ({3: [-10 ** 30, 7]}, "pairing[3]: invalid vertex indices"),
        ({3: {"a": 3}}, "pairing[3]: expected [i, j]")])
    def test_pairing_fault(self, hill_k4, faults, message):
        doc = drawing_to_doc(hill_k4)
        for i, entry in faults.items():
            doc["pairing"][i] = entry
        assert _raises(doc) == (DocumentError, message)

    def test_random_faults_match_the_record_loop(self, hill_k4):
        """Up to three random faults in vertex rows, pairing entries, edge
        records, the kind or the provenance: the parsed drawing, or the
        error type and text, are those of the record-by-record parser."""
        rng = np.random.default_rng(23)
        config, asg = blowup(seed_single(), BlowupPlan(multiplicities=(3,)),
                             rng)
        bases = [drawing_to_doc(d) for d in (
            hill_k4, build_cocktail_party(config),
            extend_partial_matching(config, asg, [1]))]
        values = [True, None, "x", 1.5, -1, 0, 2, 10 ** 30, float("nan"),
                  float("inf"), [], {}, [0.0, 0.0, 1.0], [1, 2], "arc",
                  "half_circle"]

        def fault(doc):
            edges, verts = doc["edges"], doc["vertices"]
            i, j = rng.integers(len(edges), size=2)
            value = values[rng.integers(len(values))]
            rec = edges[i]
            match int(rng.integers(9)):
                case 0:
                    rec[("u", "v", "curve", "midpoint")[i % 4]] = value
                case 1:
                    edges[i] = value
                case 2:
                    edges[i], edges[j] = edges[j], dict(rec)
                case 3:
                    edges[i] = {"u": int(j % len(verts)), "v": int(
                        rng.integers(len(verts))), "curve": "arc"}
                case 4:
                    verts[j % len(verts)] = value
                case 5:
                    verts[j % len(verts)] = [-x for x in verts[i % len(
                        verts)]]
                case 6:
                    doc["pairing"][j % len(doc["pairing"])][i % 2] = value
                case 7:
                    rec["midpoint"] = [0.0 * x for x in rec["midpoint"]]
                case 8:
                    doc["provenance" if i % 2 else "kind"] = value

        def outcome(parse, doc):
            try:
                d = parse(doc)
            except (ValueError, DegenerateConfigurationError) as exc:
                return type(exc), str(exc)
            return (d.vertices.tobytes(), d.uv.tobytes(),
                    d.midpoints.tobytes(), d.pairing, d.kind)

        kinds = set()
        for _ in range(400):
            doc = json.loads(json.dumps(bases[rng.integers(len(bases))]))
            for _ in range(rng.integers(1, 4)):
                try:
                    fault(doc)
                except (KeyError, TypeError, IndexError):
                    pass
            want = outcome(doc_to_drawing_reference, doc)
            assert outcome(doc_to_drawing, doc) == want
            kinds.add(want[0] if len(want) == 2 else "parsed")
        assert kinds == {"parsed", DocumentError,
                         DegenerateConfigurationError}

    @pytest.mark.parametrize("name", VERTEX_FAULTS)
    @pytest.mark.parametrize("i", (0, 3, 7))
    def test_vertex_fault(self, hill_k4, name, i):
        doc = drawing_to_doc(hill_k4)
        _fault(VERTEX_FAULTS, doc["vertices"], i, name)
        assert _raises(doc) == (DocumentError,
                                f"vertices[{i}]: {VERTEX_FAULTS[name][1]}")

    @pytest.mark.parametrize("first, second", [
        ("non-unit", "short"), ("short", "non-unit"), ("nan", "str"),
        ("bool", "zero"), ("long", "1e400")])
    def test_earlier_vertex_fault_wins(self, hill_k4, first, second):
        doc = drawing_to_doc(hill_k4)
        _fault(VERTEX_FAULTS, doc["vertices"], 2, first)
        _fault(VERTEX_FAULTS, doc["vertices"], 5, second)
        assert _raises(doc) == (DocumentError,
                                f"vertices[2]: {VERTEX_FAULTS[first][1]}")
        # a bad vertex is refused before any edge record
        _fault(EDGE_FAULTS, doc["edges"], 0, "list")
        assert _raises(doc)[1].startswith("vertices[2]")

class TestReportDoc:
    def test_shape_and_pairs(self, hill_k4):
        report = verify(hill_k4)
        doc = report_to_doc(report, include_pairs=True)
        assert doc["format"] == "hilldraw/report/v1"
        assert doc["passed"] is True
        assert len(doc["crossing_pairs"]) == 18
