"""Crossing reports pinned by digest.

Every case below is a drawing built from fixed seeds.  Its count_crossings
outcome is reduced to a sha256 over the total and the dtype, shape and
bytes of per_edge, per_vertex and pairs, or to the error type and text
where counting refuses.  The pinned digests in
``data/report_digests.json`` were computed before the orientation-sign
counter took over antipodal drawings, and those of the drawings on more
than 64 points (K_65, K_100, Hill k = 24) before its counting kernel
went word-major; any change to a counter must leave every one of them
unchanged.  Each drawing's document is pinned as well,
by the sha256 of ``json.dumps(drawing_to_doc(d), indent=1)`` in
``data/document_digests.json``, and must parse back to itself.
Constructions are pinned in ``data/construct_digests.json``: for each
chain of blowup levels in construct_cases, on rng streams 0..2, a sha256
over the base points and midpoints recursive_construct returns, or its
refusal, and the state its rng is left in, so that a change to the
construction must give the same drawings from the same draws.  The
figures export_svg draws of the drawings of svg_cases are pinned by sha256
in ``data/svg_digests.json``, so that a change to the renderer must give
the same bytes.

    PYTHONPATH=src python -m tests.test_report_digests [STREAMS] > out.json

prints the report and document digests of the current code, e.g. to
compare two checkouts: of the pinned corpus, or with STREAMS of a larger
one over that many rng streams (Hill k = 3..20, random K_5..K_50; 12
streams give 2388 drawings).  With STREAMS each drawing also gets the
verdict of validate_drawing on a fresh copy of its arrays: "ok", or the
type and message of the error, and each stream gets one digest of the
points sample_points returns per entry of SAMPLE_SPECS (uniform, caps and
antipodal-symmetrized draws), so that two checkouts can be compared on
their accept and redraw decisions, and one digest of every construction
of construct_cases, so that they can be compared on what they build and
on how much of the rng stream they spend.  Each drawing's SVG digest is
printed too, so that two checkouts can be compared on their figures.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hilldraw.construct import (ConstructionError, default_plan_chain,
                                recursive_construct)
from hilldraw.docio import doc_to_drawing, drawing_to_doc
from hilldraw.drawing import (Drawing, add_random_apex, build_cocktail_party,
                              complete_drawing_from_points, count_crossings,
                              delete_vertex, double, extend_partial_matching,
                              extend_to_complete, random_assignment,
                              validate_drawing)
from hilldraw.geom import (DEFAULT_TOL, DegenerateConfigurationError,
                           ToleranceConfig, unit)
from hilldraw.montecarlo import DistributionSpec, SamplingError, sample_points
from hilldraw.svg import export_svg

from .conftest import (SEEDS, hill, midpoint_near_arc, random_unit_points,
                       splits)

PINNED = Path(__file__).parent / "data" / "report_digests.json"
PINNED_DOCUMENTS = Path(__file__).parent / "data" / "document_digests.json"
PINNED_CONSTRUCTIONS = (Path(__file__).parent / "data"
                        / "construct_digests.json")
PINNED_SVGS = Path(__file__).parent / "data" / "svg_digests.json"

def _config(k, rng):
    """A random general-position antipodal configuration on k pairs."""
    while True:
        try:
            return double(random_unit_points(k, rng))
        except DegenerateConfigurationError:
            continue


def _near_circle(pts, i, j, w, det):
    """Point w moved onto the great circle of points i and j, outside their
    arc, up to a determinant of det."""
    a, b = pts[i], pts[j]
    pole = unit(np.cross(a, b))
    pts[w] = unit(unit(-(a + b)) + det / np.linalg.norm(np.cross(a, b))
                  * pole)
    return pts


def cases(hill_ks=range(3, 13), random_ns=(*range(5, 41), 65, 100),
          antipodal_ks=range(3, 13), complete_ks=(24,), rng_seed=0):
    """(name, drawing) pairs of the pinned corpus; larger ranges and other
    rng seeds give larger corpora of the same kinds.  complete_ks gives
    Hill complete drawings alone, and with random_ns past 64 they hold more
    than 64 points: several words of the sign counter's bitsets."""
    for seed in SEEDS:
        for k in hill_ks:
            if k < len(splits(seed, k)):
                continue
            rng = np.random.default_rng([rng_seed, 1, len(seed), k])
            config, asg = hill(seed, k, rng)
            d = extend_to_complete(config, asg)
            yield f"hill-{seed}-k{k}", d
            v = int(rng.integers(d.n))
            yield f"hill-{seed}-k{k}-minus{v}", delete_vertex(d, v)
            yield f"hill-{seed}-k{k}-apex", add_random_apex(config, asg, rng)
        for k in complete_ks:
            rng = np.random.default_rng([rng_seed, 1, len(seed), k])
            yield f"hill-{seed}-k{k}", extend_to_complete(*hill(seed, k, rng))
    for k in antipodal_ks:
        rng = np.random.default_rng([rng_seed, 2, k])
        config = _config(k, rng)
        yield f"cocktail-k{k}", build_cocktail_party(config)
        asg = random_assignment(config, rng)
        chosen = rng.choice(k, size=int(rng.integers(1, k)), replace=False)
        yield (f"partial-k{k}-t{k - len(chosen)}",
               extend_partial_matching(config, asg, chosen))
    for n in random_ns:
        rng = np.random.default_rng([rng_seed, 3, n])
        yield f"random-K{n}", complete_drawing_from_points(
            sample_points(n, DistributionSpec(), rng))
    # near-degenerate inputs: counted or refused by the sweep
    for det in (5e-10, 1e-14):
        rng = np.random.default_rng([rng_seed, 4])
        pts = _near_circle(sample_points(12, DistributionSpec(), rng),
                           0, 1, 5, det)
        yield f"random-K12-near{det:g}", complete_drawing_from_points(pts)
        rng = np.random.default_rng([rng_seed, 5])
        config = _config(6, rng)
        d, _ = midpoint_near_arc(config, random_assignment(config, rng), 2,
                                 det)
        yield f"complete-k6-midpoint-near{det:g}", d


def digest(d) -> dict:
    """Total and sha256 of d's crossing report, or its refusal."""
    try:
        rep = count_crossings(d)
        arrays = (rep.per_edge, rep.per_vertex, rep.pairs)
    except DegenerateConfigurationError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    h = hashlib.sha256(f"{type(rep.total).__name__}:{rep.total}".encode())
    for a in arrays:
        h.update(f"|{a.dtype.str}{a.shape}|".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return {"total": rep.total, "sha256": h.hexdigest()}


def verdict(d) -> str:
    """validate_drawing's verdict on a fresh, unvalidated copy of d."""
    try:
        validate_drawing(Drawing(vertices=d.vertices, kind=d.kind, uv=d.uv,
                                 midpoints=d.midpoints,
                                 pairing=dict(d.pairing), tol=d.tol))
    except (ValueError, DegenerateConfigurationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def document_digest(d) -> str:
    """sha256 of d's drawing document as dump_drawing writes it."""
    text = json.dumps(drawing_to_doc(d), indent=1)
    return hashlib.sha256(text.encode()).hexdigest()


def svg_digest(d) -> str:
    """sha256 of export_svg(d), or of its refusal."""
    try:
        text = export_svg(d)
    except (ValueError, DegenerateConfigurationError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def svg_cases():
    """The corpus of cases() with random K_n for n = 5, 10, .., 40 and 65."""
    return cases(random_ns=(*range(5, 41, 5), 65))


_CAP = DistributionSpec(kind="cap", theta=1.0)
# (name, spec, tolerances) of the sample_points streams; a general-position
# margin of 1e-4 makes redraws common, so the acceptance test decides often
SAMPLE_SPECS = [
    ("uniform", DistributionSpec(), DEFAULT_TOL),
    ("cap0.05", DistributionSpec(kind="cap", theta=0.05), DEFAULT_TOL),
    ("cap1", _CAP, DEFAULT_TOL),
    ("symmetrized", DistributionSpec(kind="antipodal_symmetrized",
                                     base=_CAP.draw), DEFAULT_TOL),
    ("uniform-gp1e-4", DistributionSpec(),
     ToleranceConfig(general_position=1e-4)),
    ("cap0.3-gp1e-4", DistributionSpec(kind="cap", theta=0.3),
     ToleranceConfig(general_position=1e-4)),
]


def sample_digest(spec, tol, stream: int) -> str:
    """sha256 of the points sample_points returns for n = 5, 12 and 40
    from the rng streams [stream, 6, n], or of its refusals."""
    h = hashlib.sha256()
    for n in (5, 12, 40):
        try:
            pts = sample_points(n, spec, np.random.default_rng([stream, 6, n]),
                                tol)
            h.update(pts.tobytes())
        except SamplingError as exc:
            h.update(str(exc).encode())
    return h.hexdigest()


# (name, seed arrangement, levels, sides, tolerances) of the constructions
# pinned besides the benchmark's single-level chains
CONSTRUCT_CHAINS = [
    ("single-2;2,2", "single", [[2], [2, 2]], None, DEFAULT_TOL),
    ("single-3;3,3,3", "single", [[3], [3, 3, 3]], None, DEFAULT_TOL),
    ("two-2,2;2,1,2,1", "two", [[2, 2], [2, 1, 2, 1]], None, DEFAULT_TOL),
    ("four-1,1,1,1;2,2,1,1", "four", [[1, 1, 1, 1], [2, 2, 1, 1]], None,
     DEFAULT_TOL),
    ("single-2;2,2;1,2,1,2-gp1e-11", "single", [[2], [2, 2], [1, 2, 1, 2]],
     None, ToleranceConfig(general_position=1e-11)),
    ("two-2,2-below,above", "two", [[2, 2]], [["below", "above"]],
     DEFAULT_TOL),
    ("four-1,1,1,1;2,2,1,1-above,below,below,below", "four",
     [[1, 1, 1, 1], [2, 2, 1, 1]],
     [None, ["above", "below", "below", "below"]], DEFAULT_TOL),
    # refused at level 1, after the retries
    ("single-3;2,2,2-below,above,below", "single", [[3], [2, 2, 2]],
     [[], ["below", "above", "below"]], DEFAULT_TOL),
]


def construct_digest(seed, levels, rng, sides=None,
                     tol=DEFAULT_TOL) -> str:
    """sha256 of the base points and midpoints recursive_construct builds
    from default_plan_chain(levels), or of its refusal, and of rng's state
    after the call."""
    h = hashlib.sha256()
    try:
        config, asg = recursive_construct(
            SEEDS[seed](tol), default_plan_chain(levels, sides=sides,
                                                 tol=tol), rng, tol)
        h.update(config.base.tobytes())
        h.update(asg.midpoints.tobytes())
    except (ConstructionError, DegenerateConfigurationError) as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return h.hexdigest()


def construct_cases(stream: int):
    """(name, digest) of every pinned construction on rng stream: the
    benchmark's chains (k = 5..24, seed arrangement by k, multiplicities
    split evenly, rng [stream, 0, k - 5]), then CONSTRUCT_CHAINS."""
    for k in range(5, 25):
        seed = ("single", "two", "four")[(k - 5) % 3]
        yield f"{seed}-k{k}-s{stream}", construct_digest(
            seed, [list(splits(seed, k))],
            np.random.default_rng([stream, 0, k - 5]))
    for j, (name, seed, levels, sides, tol) in enumerate(CONSTRUCT_CHAINS):
        yield f"{name}-s{stream}", construct_digest(
            seed, levels, np.random.default_rng([stream, 8, j]), sides, tol)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus():
    return list(cases())


def test_corpus_covers_every_kind(pinned):
    names = list(pinned)
    for prefix in ("hill-single", "hill-two", "hill-four", "cocktail",
                   "partial", "random-K"):
        assert any(n.startswith(prefix) for n in names)
    assert sum("-minus" in n for n in names) == sum(
        n.endswith("-apex") for n in names) == 29


def test_reports_match_pinned_digests(pinned, corpus):
    got = {name: digest(d) for name, d in corpus}
    assert list(got) == list(pinned)
    assert [n for n in got if got[n] != pinned[n]] == []


def test_documents_match_pinned_digests(corpus):
    pinned = json.loads(PINNED_DOCUMENTS.read_text(encoding="utf-8"))
    got = {name: document_digest(d) for name, d in corpus}
    assert list(got) == list(pinned)
    assert [n for n in got if got[n] != pinned[n]] == []


def test_documents_parse_back_to_themselves(corpus):
    for name, d in corpus:
        doc = drawing_to_doc(d)
        assert drawing_to_doc(doc_to_drawing(doc)) == doc, name


def test_constructions_match_pinned_digests():
    pinned = json.loads(PINNED_CONSTRUCTIONS.read_text(encoding="utf-8"))
    got = {name: h for s in range(3) for name, h in construct_cases(s)}
    assert list(got) == list(pinned)
    assert [n for n in got if got[n] != pinned[n]] == []


def test_figures_match_pinned_digests():
    pinned = json.loads(PINNED_SVGS.read_text(encoding="utf-8"))
    got = {name: svg_digest(d) for name, d in svg_cases()}
    assert list(got) == list(pinned)
    assert [n for n in got if got[n] != pinned[n]] == []


if __name__ == "__main__":
    streams = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    if not streams:
        out = {name: {**digest(d), "document": document_digest(d)}
               for name, d in cases()}
    else:
        out = {f"s{s}-{name}": {**digest(d), "document": document_digest(d),
                                "validation": verdict(d),
                                "svg": svg_digest(d)}
               for s in range(streams)
               for name, d in cases(range(3, 21), range(5, 51, 3),
                                    complete_ks=(), rng_seed=s)}
        out.update({f"s{s}-sample-{name}": sample_digest(spec, tol, s)
                    for s in range(streams)
                    for name, spec, tol in SAMPLE_SPECS})
        out.update({f"s{s}-construct": hashlib.sha256("".join(
            h for _, h in construct_cases(s)).encode()).hexdigest()
                    for s in range(streams)})
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
