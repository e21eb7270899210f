"""The four benchmark workloads.

Each op calls hilldraw's public functions in the order the CLI commands do,
wraps every call in a span named after its layer, and checks every output
exactly.  An op returns the list of checks it missed (empty when it passed)
and raises if the program raised.  Op i draws all of its randomness from
the workload seed and i, so the same seed gives the same inputs.

Work counts attached to spans are computed from input sizes:
``edges`` is the edge count of the drawing a builder returns,
``edge_pairs`` is E(E-1)/2 for a sweep over E edges, ``circle_pairs`` is
C(C(k,2), 2) great-circle pairs, ``triples`` is C(n,3), ``half_circles`` is
the number of half-circles a construction emits, and ``samples`` is the
number of census draws.
"""

from __future__ import annotations

import json
import math

import numpy as np

from hilldraw.construct import SEEDS, default_plan_chain, recursive_construct
from hilldraw.docio import doc_to_drawing, drawing_to_doc
from hilldraw.drawing import (add_random_apex, build_cocktail_party,
                              complete_drawing_from_points,
                              config_from_drawing, count_crossings,
                              count_crossings_by_circle_pairs, delete_vertex,
                              double, extend_partial_matching,
                              extend_to_complete, random_assignment, verify)
from hilldraw.formulas import hill_number, partial_matching_target
from hilldraw.geom import DegenerateConfigurationError
from hilldraw.montecarlo import (DistributionSpec, ExperimentConfig,
                                 SamplingError, k4_census, ratio_experiment,
                                 sample_points)

UNIFORM = DistributionSpec()

# Run-level statistical checks reject at this many standard errors.
Z_BAND = 5.0


def _pairs(e: int) -> int:
    return e * (e - 1) // 2


def _expect(misses: list, name: str, want, got) -> None:
    if want != got:
        misses.append(f"{name}: expected {want}, got {got}")


def _expect_report(misses: list, name: str, report, total: int) -> None:
    _expect(misses, f"{name} total", total, report.crossings.total)
    for c in report.checks:
        if not c.passed:
            misses.append(f"{name} check {c.name}: predicted {c.predicted}, "
                          f"observed {c.observed}")


class Workload:
    """A closed loop of ops; one cycle visits every input size once."""

    name = ""
    cycle = 1           # ops per cycle; a measured run ends on a cycle edge

    def __init__(self, seed: int):
        self.seed = int(seed)

    def op(self, i: int, tr) -> list[str]:
        raise NotImplementedError

    def warmup(self, tr) -> list[str]:
        """One small op on inputs outside the measured op sequence."""
        raise NotImplementedError

    def run_checks(self, ops: list[int]) -> list[str]:
        """Checks over a whole run, given the indices of its passed ops."""
        return []


# ---------------------------------------------------------------------------
# hill_pipeline: generate | verify | mutate on Hill drawings, k = 5..24
# ---------------------------------------------------------------------------

HILL_KS = tuple(range(5, 25))
ARRANGEMENTS = ("single", "two", "four")


def split_evenly(arrangement: str, k: int) -> list[int]:
    """Multiplicities that split k over the seed's half-circles."""
    parts = {"single": 1, "two": 2, "four": 4}[arrangement]
    q, r = divmod(k, parts)
    return [q + (1 if j < r else 0) for j in range(parts)]


class HillPipeline(Workload):
    name = "hill_pipeline"
    cycle = len(HILL_KS)

    def op(self, i: int, tr) -> list[str]:
        return self._pipeline(HILL_KS[i % len(HILL_KS)],
                              np.random.default_rng([self.seed, 0, i]), tr)

    def warmup(self, tr) -> list[str]:
        return self._pipeline(HILL_KS[0],
                              np.random.default_rng([self.seed, 1, 0]), tr)

    def _pipeline(self, k: int, rng, tr) -> list[str]:
        misses: list[str] = []
        n = 2 * k
        arrangement = ARRANGEMENTS[(k - HILL_KS[0]) % len(ARRANGEMENTS)]
        levels = [split_evenly(arrangement, k)]
        # generate
        with tr.span("construct.recursive_construct", half_circles=k):
            plans = default_plan_chain(levels)
            config, asg = recursive_construct(SEEDS[arrangement](), plans,
                                              rng)
        edges = _pairs(n)
        with tr.span("drawing.build", edges=edges):
            d = extend_to_complete(config, asg, provenance={
                "construction": "blowup", "seed_arrangement": arrangement,
                "multiplicities": levels})
        with tr.span("docio.serialize") as s:
            text = json.dumps(drawing_to_doc(d), indent=1)
            s.add(bytes=len(text))
        # verify reads the file back
        with tr.span("docio.parse", bytes=len(text), edges=edges):
            parsed = doc_to_drawing(json.loads(text))
        if not np.array_equal(parsed.vertices, d.vertices):
            misses.append("round trip changed the vertex coordinates")
        with tr.span("drawing.verify", edge_pairs=_pairs(edges)):
            report = verify(parsed)
        _expect_report(misses, "complete", report, hill_number(n))
        # mutate --delete-vertex
        v = int(rng.integers(n))
        with tr.span("drawing.mutate"):
            minus = delete_vertex(parsed, v)
        with tr.span("drawing.verify", edge_pairs=_pairs(_pairs(n - 1))):
            report = verify(minus)
        _expect_report(misses, "vertex deleted", report, hill_number(n - 1))
        # mutate --add-apex
        with tr.span("drawing.mutate"):
            config2, asg2 = config_from_drawing(parsed)
            plus = add_random_apex(config2, asg2, rng,
                                   provenance=dict(parsed.provenance))
        with tr.span("drawing.verify", edge_pairs=_pairs(_pairs(n + 1))):
            report = verify(plus)
        _expect_report(misses, "apex added", report, hill_number(n + 1))
        return misses


# ---------------------------------------------------------------------------
# random_k100: one uniform ratio trial at n = 100
# ---------------------------------------------------------------------------

RANDOM_N = 100
# Moon (1965): E[cr] = (3/8) C(n,4) for uniform points.
RANDOM_MEAN = 3 * math.comb(RANDOM_N, 4) / 8
# Standard deviation of cr at n = 100: 40 trials of ratio_experiment
# (seed 777) gave a sample sd of 2.03e4, whose 95% interval reaches 2.6e4.
# The mean check divides this upper value by sqrt(ops).
RANDOM_SD = 2.6e4


class RandomK100(Workload):
    name = "random_k100"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.totals: dict[int, int] = {}

    def op(self, i: int, tr) -> list[str]:
        misses, total = self._trial(RANDOM_N, self.seed, i, tr)
        self.totals[i] = total
        return misses

    def warmup(self, tr) -> list[str]:
        # a small trial on another experiment seed reaches the same code
        return self._trial(20, self.seed + 1, 0, tr)[0]

    @staticmethod
    def _trial(n: int, seed: int, trial: int, tr) -> tuple[list[str], int]:
        """One trial with ratio_experiment's seed derivation
        [seed, trial, attempt]; degenerate samples move to the next
        attempt, as in the program."""
        for attempt in range(16):
            rng = np.random.default_rng([seed, trial, attempt])
            try:
                with tr.span("montecarlo.sample_points",
                             triples=math.comb(n, 3)):
                    pts = sample_points(n, UNIFORM, rng)
                with tr.span("drawing.build", edges=_pairs(n)):
                    d = complete_drawing_from_points(pts, provenance={
                        "seed": seed, "trial": trial, "attempt": attempt})
                with tr.span("drawing.count_crossings",
                             edge_pairs=_pairs(_pairs(n))) as s:
                    rep = count_crossings(d)
                    s.add(crossings=rep.total)
                break
            except DegenerateConfigurationError:
                continue
        else:
            raise SamplingError(f"trial {trial}: no countable sample")
        misses: list[str] = []
        _expect(misses, "per-edge sum", 2 * rep.total, int(rep.per_edge.sum()))
        _expect(misses, "per-vertex sum", 4 * rep.total,
                int(rep.per_vertex.sum()))
        if not 0 < rep.total < math.comb(n, 4):
            misses.append(f"total {rep.total} outside (0, C({n},4))")
        return misses, rep.total

    def run_checks(self, ops: list[int]) -> list[str]:
        misses = []
        counts = [self.totals[i] for i in ops]
        if counts:
            mean = sum(counts) / len(counts)
            z = (mean - RANDOM_MEAN) / (RANDOM_SD / math.sqrt(len(counts)))
            if abs(z) > Z_BAND:
                misses.append(f"mean crossing count {mean:.1f} is {z:+.1f} "
                              f"standard errors from (3/8)C(100,4)")
        if 0 in self.totals:
            result = ratio_experiment(ExperimentConfig(
                n=RANDOM_N, trials=1, seed=self.seed, distribution=UNIFORM))
            _expect(misses, "ratio_experiment trial 0", self.totals[0],
                    result.counts[0])
        return misses


# ---------------------------------------------------------------------------
# cocktail_corpus: random antipodal configurations, k = 3..10
# ---------------------------------------------------------------------------

CORPUS_KS = tuple(range(3, 11))


class CocktailCorpus(Workload):
    name = "cocktail_corpus"
    cycle = len(CORPUS_KS)

    def op(self, i: int, tr) -> list[str]:
        return self._corpus(CORPUS_KS[i % len(CORPUS_KS)],
                            np.random.default_rng([self.seed, 0, i]), tr)

    def warmup(self, tr) -> list[str]:
        return self._corpus(CORPUS_KS[0],
                            np.random.default_rng([self.seed, 1, 0]), tr)

    @staticmethod
    def _corpus(k: int, rng, tr) -> list[str]:
        misses: list[str] = []
        while True:
            pts = rng.normal(size=(k, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            try:
                with tr.span("drawing.double"):
                    config = double(pts)
                break
            except DegenerateConfigurationError:
                continue
        edges = 2 * k * k - 2 * k
        with tr.span("drawing.build", edges=edges):
            d = build_cocktail_party(config)
        with tr.span("drawing.count_crossings",
                     edge_pairs=_pairs(edges)) as s:
            total = count_crossings(d).total
            s.add(crossings=total)
        with tr.span("drawing.circle_pairs",
                     circle_pairs=_pairs(_pairs(k))):
            oracle = count_crossings_by_circle_pairs(d)
        _expect(misses, "sweep total", k * (k - 1) * (k - 2) * (k - 3) // 4,
                total)
        _expect(misses, "circle-pair total", total, oracle)
        # One random half-circle: no second half-circle to cross, so the
        # drawing hits the strength-0 partial-matching count.
        with tr.span("drawing.random_assignment"):
            asg = random_assignment(config, rng)
        chosen = [int(rng.integers(k))]
        with tr.span("drawing.build", edges=edges + 1):
            partial = extend_partial_matching(config, asg, chosen)
        with tr.span("drawing.verify", edge_pairs=_pairs(edges + 1)):
            report = verify(partial)
        _expect_report(misses, "partial matching", report,
                       partial_matching_target(2 * k, k - 1))
        return misses


# ---------------------------------------------------------------------------
# k4_census: 500k random 4-point drawings per op
# ---------------------------------------------------------------------------

CENSUS_TRIALS = 500_000


class K4Census(Workload):
    name = "k4_census"

    def op(self, i: int, tr) -> list[str]:
        return self._census(CENSUS_TRIALS, self.seed * 1_000_000 + i, tr)

    def warmup(self, tr) -> list[str]:
        return self._census(20_000, self.seed * 1_000_000 + 999_999, tr)

    @staticmethod
    def _census(trials: int, seed: int, tr) -> list[str]:
        misses: list[str] = []
        with tr.span("montecarlo.k4_census", samples=trials):
            result = k4_census(trials, UNIFORM, seed)
        counts = result.counts
        _expect(misses, "bin sum", trials, sum(counts))
        _expect(misses, "bins 2 and 3", (0, 0), tuple(counts[2:]))
        frac = counts[1] / trials
        z = (frac - 0.375) / math.sqrt(0.375 * 0.625 / trials)
        if abs(z) > Z_BAND:
            misses.append(f"one-crossing fraction {frac:.5f} is {z:+.1f} "
                          "standard errors from 3/8")
        return misses


WORKLOADS = {w.name: w for w in (HillPipeline, RandomK100, CocktailCorpus,
                                 K4Census)}
