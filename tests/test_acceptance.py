"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons against closed forms are exact integer equalities;
every random input is derived from a fixed seed.
"""

import json
import os
import time

import numpy as np
import pytest

from hilldraw.cli import main as cli_main
from hilldraw.construct import (BlowupPlan, blowup, default_plan_chain,
                                perturb, recursive_construct, seed_four,
                                seed_single, seed_two)
from hilldraw.docio import drawing_to_doc
from hilldraw.drawing import (_pack_drawing, _sign_counts, _sweep_pairs,
                              add_random_apex, build_cocktail_party,
                              complete_drawing_from_points,
                              count_crossings, count_crossings_by_circle_pairs,
                              delete_vertex, double, extend_partial_matching,
                              extend_to_complete, random_assignment,
                              strength)
from hilldraw.formulas import (hill_number, partial_matching_target,
                               per_vertex_target)
from hilldraw.geom import (DEFAULT_TOL, DegenerateConfigurationError,
                           arc_frames)
from hilldraw.montecarlo import (DistributionSpec, ExperimentConfig,
                                 k4_census, ratio_experiment, sample_points)

CORPUS_KS = tuple(range(3, 11))
CONFIGS_PER_K = 100


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: {message}: PASS")


def _random_general_position_config(k, rng):
    while True:
        pts = rng.normal(size=(k, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        try:
            return double(pts)
        except DegenerateConfigurationError:
            continue


def _half_circle_edge_hits(config, asg, drawing, tol=DEFAULT_TOL):
    """Vectorized: how many edges of the matching-free drawing each matching
    half-circle crosses."""
    uv = drawing.uv
    E = len(uv)
    assert np.isnan(drawing.midpoints).all()
    N, U, V = arc_frames(*drawing.vertices[uv.T])
    k = config.k
    hits = []
    for i in range(k):
        m = asg.midpoints[i]
        nh = np.cross(config.base[i], m)
        X = np.cross(np.broadcast_to(nh, (E, 3)), N)
        nx = np.linalg.norm(X, axis=1)
        adjacent = ((uv[:, 0] == i) | (uv[:, 1] == i)
                    | (uv[:, 0] == i + k) | (uv[:, 1] == i + k))
        active = ~adjacent
        assert np.all(nx[active] > tol.sign)
        Xn = X / np.where(nx > 0, nx, 1.0)[:, None]
        d1 = Xn @ m
        d2 = np.einsum("ij,ij->i", Xn, U)
        d3 = np.einsum("ij,ij->i", Xn, V)
        mags = np.min(np.abs(np.stack([d1, d2, d3])), axis=0)
        assert np.all(mags[active] > tol.sign)
        pos = (d1 > 0) & (d2 > 0) & (d3 > 0)
        neg = (d1 < 0) & (d2 < 0) & (d3 < 0)
        hits.append(int(np.sum(active & (pos | neg))))
    return hits


@pytest.fixture(scope="session")
def dn_corpus_stats():
    """Criteria 2 and 5 share this sweep over 100 configs per k in 3..10."""
    stats = {"count_mismatches": [], "increment_mismatches": [],
             "oracle_mismatches": [], "sign_mismatches": [], "drawings": 0,
             "count_seconds": 0.0}
    for k in CORPUS_KS:
        expected_total = k * (k - 1) * (k - 2) * (k - 3) // 4
        expected_inc = (k - 1) * (k - 2) // 2
        for trial in range(CONFIGS_PER_K):
            rng = np.random.default_rng([202408, k, trial])
            config = _random_general_position_config(k, rng)
            drawing = build_cocktail_party(config)
            start = time.perf_counter()
            total = count_crossings(drawing).total
            asg = random_assignment(config, rng)
            hits = _half_circle_edge_hits(config, asg, drawing)
            stats["count_seconds"] += time.perf_counter() - start
            if total != expected_total:
                stats["count_mismatches"].append((k, trial, total))
            if any(h != expected_inc for h in hits):
                stats["increment_mismatches"].append((k, trial, hits))
            aggregated = count_crossings_by_circle_pairs(drawing)
            if aggregated != total:
                stats["oracle_mismatches"].append((k, trial, total,
                                                   aggregated))
            # the sign counter against the sweep, on the matching-free and
            # the complete drawing: determinants against frame products
            for d in (drawing, extend_to_complete(config, asg)):
                signs = _sign_counts(d, d.tol)
                swept = np.bincount(
                    _sweep_pairs(_pack_drawing(d), d.tol.sign, 1).ravel(),
                    minlength=len(d.uv))
                if signs is None or not np.array_equal(signs, swept):
                    stats["sign_mismatches"].append((k, trial, d.kind.value))
            stats["drawings"] += 1
    return stats


@pytest.fixture(scope="session")
def seed_constructions():
    """Strength-0 configurations from every seed at total multiplicity k."""
    def splits(name, k):
        if name == "single":
            return (k,)
        if name == "two":
            return (k // 2, k - k // 2)
        q, r = divmod(k, 4)
        return tuple(q + (1 if i < r else 0) for i in range(4))

    seeds = {"single": seed_single, "two": seed_two, "four": seed_four}
    # fixed per-seed stream ids; str hashes change with PYTHONHASHSEED
    stream = {"single": 446, "two": 945, "four": 439}
    out = {}
    for name, factory in seeds.items():
        for k in CORPUS_KS:
            if name == "four" and k < 4:
                continue
            plan = BlowupPlan(multiplicities=splits(name, k), eps=0.2)
            rng = np.random.default_rng([91, stream[name], k])
            out[(name, k)] = blowup(factory(), plan, rng)
    return out


def test_criterion_1_hill_number_table():
    expected = [0, 0, 1, 3, 9, 18, 36, 60, 100, 150, 225, 315]
    assert [hill_number(n) for n in range(3, 15)] == expected
    for n in range(3, 1001):
        if n % 2 == 0:
            assert hill_number(n) == n * (n - 2) ** 2 * (n - 4) // 64
        else:
            assert hill_number(n) == (n - 1) ** 2 * (n - 3) ** 2 // 64
    start = time.perf_counter()
    table = [hill_number(n) for n in range(3, 15)]
    elapsed = time.perf_counter() - start
    assert table == expected
    assert elapsed < 1e-3
    _report(1, f"hill numbers 3..14 match the table in {elapsed * 1e6:.0f} us")


def test_criterion_2_matching_free_counts(dn_corpus_stats):
    s = dn_corpus_stats
    assert s["drawings"] == len(CORPUS_KS) * CONFIGS_PER_K
    assert s["count_mismatches"] == []
    assert s["increment_mismatches"] == []
    assert s["count_seconds"] < 60.0
    _report(2, f"{s['drawings']} matching-free drawings hit "
               f"k(k-1)(k-2)(k-3)/4 and every half-circle crosses "
               f"(k-1)(k-2)/2 edges in {s['count_seconds']:.1f}s")


def test_criterion_3_hill_drawings_from_seeds(seed_constructions):
    checked = 0
    for (name, k), (config, asg) in sorted(seed_constructions.items()):
        n = 2 * k
        assert strength(config, asg) == 0
        d = extend_to_complete(config, asg)
        rep = count_crossings(d)
        assert rep.total == hill_number(n)
        target = per_vertex_target(n)
        assert all(v == target for v in rep.per_vertex)
        for v in range(n):
            assert count_crossings(delete_vertex(d, v)).total \
                == hill_number(n - 1)
        apex_rng = np.random.default_rng([17, k, len(name)])
        for _ in range(20):
            out = add_random_apex(config, asg, apex_rng)
            assert count_crossings(out).total == hill_number(n + 1)
        checked += 1
    _report(3, f"{checked} seed constructions verify H(2k), H(2k-1) per "
               "deletion, H(2k+1) for 20 apexes, and per-vertex targets")


def test_criterion_4_partial_matchings(seed_constructions):
    cases = 0
    for k in range(4, 9):
        config, asg = seed_constructions[("single", k)]
        n = 2 * k
        for t in range(k + 1):
            chosen = range(k - t)
            d = extend_partial_matching(config, asg, chosen)
            assert count_crossings(d).total == partial_matching_target(n, t)
            cases += 1
    _report(4, f"{cases} partial-matching drawings hit "
               "H(n) - t(k-1)(k-2)/2 exactly")


def test_criterion_5_oracle_equivalence(dn_corpus_stats):
    s = dn_corpus_stats
    assert s["drawings"] >= 800
    assert s["oracle_mismatches"] == []
    assert s["sign_mismatches"] == []
    _report(5, f"pairwise and circle-pair totals agree on "
               f"{s['drawings']} matching-free drawings, and sign-counter "
               f"and sweep per-edge counts on these and their "
               f"{s['drawings']} complete drawings")


def test_criterion_6_flag_diversity():
    b, a = "below", "above"
    vectors = [
        ((b, b), (b, b, b, b)),
        ((a, b), (b, b, b, b)),
        ((b, a), (b, b, b, b)),
        ((a, a), (b, b, b, b)),
        ((b, b), (a, a, b, b)),
        ((b, b), (b, b, a, a)),
        ((b, b), (a, a, a, a)),
    ]
    pair_sets = []
    for lvl1, lvl2 in vectors:
        plans = default_plan_chain([[2, 2], [2, 1, 2, 1]],
                                   sides=[list(lvl1), list(lvl2)])
        config, asg = recursive_construct(seed_two(), plans,
                                          np.random.default_rng(2024))
        rep = count_crossings(extend_to_complete(config, asg))
        assert rep.total == hill_number(12)
        pair_sets.append(rep.pair_set())
    for i in range(len(pair_sets)):
        for j in range(i + 1, len(pair_sets)):
            assert pair_sets[i] != pair_sets[j], (i, j)
    _report(6, f"{len(vectors)} depth-2 flag vectors at k=6 give pairwise "
               "distinct crossing-pair sets, all with total H(12)")


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    config = ExperimentConfig(n=60, trials=30, seed=424242,
                              distribution=DistributionSpec())
    result = ratio_experiment(config)
    mean = float(result.ratios.mean())
    assert 0.95 <= mean <= 1.15
    prefix = ratio_experiment(ExperimentConfig(
        n=60, trials=3, seed=424242, distribution=DistributionSpec()))
    assert prefix.counts == result.counts[:3]

    census = k4_census(100_000, DistributionSpec(), seed=31415)
    frac1 = census.fractions[1]
    assert abs(frac1 - 0.375) < 0.02
    again = k4_census(100_000, DistributionSpec(), seed=31415)
    assert again.counts == census.counts
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(7, f"mean cr/H(60) = {mean:.4f} in [0.95, 1.15]; census "
               f"fraction(1 crossing) = {frac1:.4f} within 0.02 of 0.375; "
               f"fixed seeds reproduce bit-identically ({elapsed:.0f}s)")


def test_criterion_8_performance():
    pts = sample_points(100, DistributionSpec(),
                        np.random.default_rng(777))
    d = complete_drawing_from_points(pts)
    assert len(d.uv) == 4950
    # each timing covers the report and its pair list: a point drawing's
    # pairs are swept on first read, with the report's workers
    start = time.perf_counter()
    serial = count_crossings(d, workers=1)
    serial.pairs
    t1 = time.perf_counter() - start
    assert t1 < 10.0

    timings = {1: t1}
    for workers in (2, 4):
        start = time.perf_counter()
        rep = count_crossings(d, workers=workers)
        rep.pairs
        timings[workers] = time.perf_counter() - start
        assert rep == serial
    cpus = os.cpu_count() or 1
    note = ""
    if cpus >= 4:
        # the linear-speedup clause needs real cores to measure against
        assert min(timings[2], timings[4]) < 0.6 * t1
    else:
        note = (f" (host has {cpus} cpus; the 4-thread linear-speedup "
                "clause is not measurable here, counts verified equal)")
    _report(8, "K_100 counted with its pair list in "
               f"{t1:.2f}s serially; workers 1/2/4 agree exactly, "
               f"times {timings[1]:.2f}/{timings[2]:.2f}/{timings[4]:.2f}s"
               + note)


def test_criterion_9_robustness(seed_constructions, tmp_path, capsys):
    samples = [("single", 5), ("two", 6), ("four", 7)]
    for name, k in samples:
        config, asg = seed_constructions[(name, k)]
        before = count_crossings(extend_to_complete(config, asg))
        c2, a2 = perturb(config, asg, 1e-6,
                         np.random.default_rng([3, k]))
        after = count_crossings(extend_to_complete(c2, a2))
        assert before == after
        partial_before = count_crossings(
            extend_partial_matching(config, asg, range(k - 1)))
        partial_after = count_crossings(
            extend_partial_matching(c2, a2, range(k - 1)))
        assert partial_before == partial_after

    config, asg = seed_constructions[("single", 4)]
    doc = drawing_to_doc(extend_to_complete(config, asg))
    for rec in doc["edges"]:
        if rec["curve"] == "half_circle":
            rec["midpoint"] = [-c for c in rec["midpoint"]]
            break
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(doc))
    code = cli_main(["verify", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL hill_total: predicted=18 observed=21" in out
    _report(9, "1e-6 perturbations preserve every count; the corrupted "
               "file fails verification with observed=21 vs expected=18")
