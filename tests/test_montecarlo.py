from itertools import product
from math import comb, sqrt

import numpy as np
import pytest

from hilldraw import drawing as drawing_mod
from hilldraw import montecarlo
from hilldraw.drawing import complete_drawing_from_points, count_crossings
from hilldraw.formulas import hill_number
from hilldraw.geom import (DEFAULT_TOL, DegenerateConfigurationError,
                           ToleranceConfig, rotate)
from hilldraw.montecarlo import (CensusResult, DistributionSpec,
                                 ExperimentConfig, SamplingError, k4_census,
                                 random_drawing_cr, ratio_experiment,
                                 sample_points)

from .oracles import uniform_draw_reference

# wide dead zone: a few percent of samples redraw, over several rounds
_REDRAW_TOL = ToleranceConfig(sign=1e-2, general_position=1e-1)


class TestDistributionSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="lumpy")

    def test_cap_needs_radius_in_range(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="cap", theta=0.0)

    def test_symmetrized_needs_base(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="antipodal_symmetrized")

    def test_roundtrip(self):
        spec = DistributionSpec(kind="cap", theta=1.25)
        assert DistributionSpec.from_dict(spec.to_dict()) == spec


class TestSamplePoints:
    def test_reproducible(self):
        dist = DistributionSpec()
        a = sample_points(6, dist, np.random.default_rng(5))
        b = sample_points(6, dist, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        pts = sample_points(30, DistributionSpec(), np.random.default_rng(1))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_uniform_draw_matches_row_norm_bitwise(self):
        # consecutive draws from one stream, so the stream stays aligned too
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (1, 3, 7, 100, 80_000):
                got = DistributionSpec().draw(rng, size)
                want = uniform_draw_reference(ref, size)
                assert got.shape == (size, 3)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), (seed, size)

    def test_uniform_mean_near_zero(self):
        pts = DistributionSpec().draw(np.random.default_rng(2), 100_000)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.01)

    def test_full_cap_covers_both_hemispheres(self):
        pts = DistributionSpec(kind="cap", theta=float(np.pi)).draw(
            np.random.default_rng(3), 20_000)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.05)
        assert (pts[:, 2] > 0).any() and (pts[:, 2] < 0).any()

    def test_narrow_cap_stays_near_pole(self):
        pts = DistributionSpec(kind="cap", theta=0.3).draw(
            np.random.default_rng(4), 5000)
        assert np.all(pts[:, 2] >= np.cos(0.3) - 1e-12)

    def test_symmetrization_balances_hemispheres(self):
        base = DistributionSpec(kind="cap", theta=0.5)
        sym = DistributionSpec(kind="antipodal_symmetrized",
                               base=lambda rng, size: base.draw(rng, size))
        pts = sym.draw(np.random.default_rng(6), 40_000)
        assert abs(float(pts[:, 2].mean())) < 0.02

    def test_degenerate_distribution_raises(self):
        # all mass on one point: never in general position
        bad = DistributionSpec(kind="antipodal_symmetrized",
                               base=lambda rng, size: np.tile(
                                   [0.0, 0.0, 1.0], (size, 1)))
        with pytest.raises(SamplingError):
            sample_points(4, bad, np.random.default_rng(0))


class TestRandomDrawingCr:
    def test_deterministic(self):
        dist = DistributionSpec()
        a = random_drawing_cr(10, dist, seed=42)
        b = random_drawing_cr(10, dist, seed=42)
        assert a == b

    def test_k4_values_bounded(self):
        dist = DistributionSpec()
        counts = [random_drawing_cr(4, dist, seed=s) for s in range(40)]
        assert all(c in (0, 1, 2, 3) for c in counts)
        assert set(counts) <= {0, 1}

    def test_k5_has_at_least_one_crossing(self):
        # the complete graph on 5 vertices is not planar
        dist = DistributionSpec()
        for s in range(20):
            assert random_drawing_cr(5, dist, seed=s) >= 1

    def test_counts_within_four_subset_bound(self):
        from math import comb
        dist = DistributionSpec()
        for n in (6, 8):
            c = random_drawing_cr(n, dist, seed=7)
            assert 0 <= c <= 3 * comb(n, 4)

    def test_rotation_invariance_exact(self):
        rng = np.random.default_rng(11)
        pts = sample_points(12, DistributionSpec(), rng)
        axis = rng.normal(size=3)
        rotated = np.stack([rotate(p, axis, 1.234567) for p in pts])
        rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
        c1 = count_crossings(complete_drawing_from_points(pts)).total
        c2 = count_crossings(complete_drawing_from_points(rotated)).total
        assert c1 == c2

    def test_degenerate_attempt_moves_to_the_next_stream(self,
                                                         monkeypatch):
        calls = _refuse_counts(monkeypatch, 1)
        dist = DistributionSpec()
        pts = sample_points(8, dist, np.random.default_rng([11, 1]))
        want = count_crossings(complete_drawing_from_points(pts)).total
        assert random_drawing_cr(8, dist, seed=11) == want
        assert len(calls) == 2

    def test_every_attempt_refused(self, monkeypatch):
        calls = _refuse_counts(monkeypatch, montecarlo._MAX_TRIES)
        with pytest.raises(SamplingError) as err:
            random_drawing_cr(8, DistributionSpec(), seed=11)
        assert str(err.value) == ("no countable sample for stream [11] in "
                                  "16 attempts")
        assert len(calls) == montecarlo._MAX_TRIES


def _refuse_counts(monkeypatch, refusals):
    """Makes montecarlo's count_crossings refuse its first calls as
    degenerate; returns the list of its calls."""
    calls = []

    def refusing(d, tol, workers):
        calls.append(1)
        if len(calls) <= refusals:
            raise DegenerateConfigurationError("forced")
        return count_crossings(d, tol, workers=workers)

    monkeypatch.setattr(montecarlo, "count_crossings", refusing)
    return calls


class TestRatioExperiment:
    def test_determinism_and_stats(self):
        config = ExperimentConfig(n=20, trials=10, seed=123)
        r1 = ratio_experiment(config)
        r2 = ratio_experiment(config)
        assert r1.counts == r2.counts
        assert r1.hill == hill_number(20)
        doc = r1.to_dict()
        assert doc["trials"] == 10
        assert doc["ratio_min"] <= doc["ratio_mean"] <= doc["ratio_max"]

    @pytest.mark.parametrize("seed, counts", [
        (7, (246, 231, 162, 200, 197)),
        (31, (230, 173, 156, 157, 156)),
    ])
    def test_pinned_counts(self, seed, counts):
        # sample_points end to end: draw, usability check, count
        result = ratio_experiment(ExperimentConfig(n=12, trials=5, seed=seed))
        assert result.counts == counts

    def test_n20_band(self):
        config = ExperimentConfig(n=20, trials=60, seed=2024)
        result = ratio_experiment(config)
        mean = float(result.ratios.mean())
        assert 0.9 <= mean <= 1.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=3, trials=5, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, trials=0, seed=0)

    def test_mean_matches_exact_expectation(self):
        # Moon (1965): uniform points give E[cr] = (3/8) C(n,4) exactly
        from math import comb
        result = ratio_experiment(ExperimentConfig(n=100, trials=40,
                                                   seed=2718))
        counts = np.asarray(result.counts, dtype=float)
        stderr = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 3 * comb(100, 4) / 8) <= 5 * stderr

    def test_ratio_variance_shrinks_with_n(self):
        variances = []
        for n in (20, 40, 60):
            result = ratio_experiment(ExperimentConfig(n=n, trials=12,
                                                       seed=555))
            variances.append(float(result.ratios.var(ddof=1)))
        assert variances[0] > variances[1] > variances[2]


class TestK4Census:
    def test_fraction_near_three_eighths(self):
        result = k4_census(30_000, DistributionSpec(), seed=99)
        assert isinstance(result, CensusResult)
        assert sum(result.counts) == 30_000
        assert abs(result.fractions[1] - 0.375) < 0.02

    def test_high_counts_logged_not_asserted(self):
        result = k4_census(30_000, DistributionSpec(), seed=99)
        # observed share of 2+ crossing configurations, expected near zero
        assert result.fractions[2] + result.fractions[3] < 0.01

    def test_reproducible(self):
        a = k4_census(5000, DistributionSpec(), seed=5)
        b = k4_census(5000, DistributionSpec(), seed=5)
        assert a.counts == b.counts

    @pytest.mark.parametrize("trials, dist, seed, tol, counts", [
        (30_000, DistributionSpec(), 99, DEFAULT_TOL, (18665, 11335, 0, 0)),
        (20_000, DistributionSpec(kind="cap", theta=0.3), 3, DEFAULT_TOL,
         (5951, 14049, 0, 0)),
        # 6 and 14 redraw rounds; 50 000 ends on a partial chunk
        (50_000, DistributionSpec(), 11, _REDRAW_TOL, (31141, 18859, 0, 0)),
        (50_000, DistributionSpec(kind="cap", theta=0.3), 11, _REDRAW_TOL,
         (8975, 41025, 0, 0)),
    ])
    def test_pinned_histograms(self, trials, dist, seed, tol, counts):
        # pinned to the histograms of three pairwise arc tests per sample,
        # which the census's sign split must reproduce sample for sample
        assert k4_census(trials, dist, seed, tol).counts == counts

    def test_resampling_gives_up(self):
        """Four equal points are all in the dead zone: every round redraws
        them until the census gives up."""
        flat = DistributionSpec(kind="antipodal_symmetrized",
                                base=lambda rng, size: np.tile(
                                    [0.0, 0.0, 1.0], (size, 1)))
        with pytest.raises(SamplingError) as err:
            k4_census(3, flat, seed=1)
        assert str(err.value) == "census resampling did not converge"

    def test_histogram_normalizes(self):
        result = k4_census(2000, DistributionSpec(), seed=1)
        assert abs(sum(result.fractions) - 1.0) < 1e-12


class TestExactStatistics:
    """Sums and means the paper's local argument fixes exactly: every four
    points in general position span one crossing in 6 of the 16 choices of
    a point from each antipodal couple (montecarlo._dependency)."""

    @pytest.mark.parametrize("n", (8, 10))
    def test_flip_identity(self, n, monkeypatch):
        """The totals of all 2^n antipodal flips of a sample sum to
        6 * 2^(n-4) * C(n, 4), every one counted from the signs."""
        sweeps = []
        sweep = drawing_mod._sweep
        monkeypatch.setattr(drawing_mod, "_sweep",
                            lambda *a: sweeps.append(1) or sweep(*a))
        pts = sample_points(n, DistributionSpec(), np.random.default_rng(n))
        total = sum(count_crossings(complete_drawing_from_points(
            pts * np.array(signs)[:, None])).total
            for signs in product((1.0, -1.0), repeat=n))
        assert total == 6 * 2 ** (n - 4) * comb(n, 4)
        assert sweeps == []

    def test_census_against_its_exact_mean(self):
        """An antipodally symmetric distribution spans a crossing with
        probability exactly 3/8; the plain cap it symmetrizes, the control,
        does not."""
        trials = 200_000
        cap = DistributionSpec(kind="cap", theta=0.5)
        sym = DistributionSpec(kind="antipodal_symmetrized", base=cap.draw)
        sigma = sqrt(0.375 * 0.625 / trials)
        z = [(k4_census(trials, dist, seed=7).fractions[1] - 0.375) / sigma
             for dist in (sym, cap)]
        assert abs(z[0]) < 5.0 < abs(z[1])
