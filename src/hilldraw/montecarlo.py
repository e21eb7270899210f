"""Random geodesic drawings: sampling, crossing statistics, and the
empirical convergence of cr/H(n) toward 1.

Every experiment is reproducible: attempt a of trial t of an experiment
with seed s draws from ``numpy.random.default_rng([s, t, a])``, so results
do not depend on scheduling or trial order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drawing import (Drawing, DrawingKind, _cached_signs, _stage_clears,
                      complete_drawing_from_points, count_crossings)
from .formulas import hill_number
from .geom import (DEFAULT_TOL, DegenerateConfigurationError,
                   ToleranceConfig, cross, cross3, dot3,
                   has_coplanar_triple, row_blocks, upper_pairs)


class SamplingError(Exception):
    """Repeated sampling failed to produce a usable configuration."""


@dataclass(frozen=True)
class DistributionSpec:
    """Point distribution on the sphere.

    kind "uniform": normalized independent Gaussian triples.
    kind "cap": uniform on the spherical cap of angular radius theta about
        the north pole; theta = pi recovers the uniform distribution.
    kind "antipodal_symmetrized": draw from ``base`` and flip each point to
        its antipode with probability 1/2, which symmetrizes any
        absolutely continuous distribution.
    """

    kind: str = "uniform"
    theta: float = float(np.pi)
    base: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "cap", "antipodal_symmetrized"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "cap" and not 0.0 < self.theta <= np.pi:
            raise ValueError("cap radius must lie in (0, pi]")
        if self.kind == "antipodal_symmetrized" and self.base is None:
            raise ValueError("antipodal_symmetrized needs a base sampler")

    def draw(self, rng, size: int) -> np.ndarray:
        if self.kind == "uniform":
            pts = rng.standard_normal((size, 3))
            # linalg.norm's sum order, (x² + y²) + z², without its reduce:
            # the same bits, computed column by column
            x, y, z = pts.T
            pts /= np.sqrt(x * x + y * y + z * z)[:, None]
            return pts
        if self.kind == "cap":
            z = rng.uniform(np.cos(self.theta), 1.0, size=size)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
            r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        pts = np.asarray(self.base(rng, size), dtype=float)
        flips = rng.integers(0, 2, size=size).astype(bool)
        pts = pts.copy()
        pts[flips] *= -1.0
        return pts

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "cap":
            out["theta"] = self.theta
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "DistributionSpec":
        if d.get("kind") == "cap":
            return cls(kind="cap", theta=float(d["theta"]))
        return cls(kind=str(d.get("kind", "uniform")))


def _points_usable(pts: np.ndarray, tol: ToleranceConfig) -> bool:
    """General position plus no (near-)equal or (near-)antipodal pair.

    The orientation stage of the draw's point drawing runs first.  Where
    it clears _off_curve_bound (drawing._stage_clears) and every point is
    unit within tol.norm, no pair can fail the separation test
    fl(|a x b|^2) <= g^2, g = tol.general_position, and the test is
    skipped, so the pair cross products are computed once.  For a pair
    a, b and any third point c, det(a, b, c) is guarded, as a point
    drawing has no couples, and the stage takes it as fl(x.c) with x =
    cross(a, b), the product the test squares.  With u = 2^-53, s = 1 +
    tol.norm >= |c|^2 and |det| > (g + 1e-14) s^2: |x| >= |det| / (|c|
    (1 + 3u)), and the test's sum of three squares has fl(x.x) >= |x|^2
    (1 - 3u) > (g + 1e-14)^2 s^3 (1 - 3u) / (1 + 3u)^2 > g^2, as the
    bound can be cleared only where g < 1.  Otherwise the test runs, with
    its |a x b|^2 form, not require_arc_rows' |a x b|: they round
    differently.
    """
    # edgeless: the stage reads only the vertices of a point drawing
    d = Drawing(vertices=pts, kind=DrawingKind.COMPLETE, uv=(), midpoints=(),
                tol=tol)
    if _stage_clears(d) and (np.abs(np.einsum("ij,ij->i", pts, pts) - 1.0)
                             <= tol.norm).all():
        return True
    ii, jj = upper_pairs(len(pts)).T
    for start, stop in row_blocks(len(ii), 3):
        cr = cross(pts[ii[start:stop]], pts[jj[start:stop]])
        if (np.einsum("ij,ij->i", cr, cr)
                <= tol.general_position ** 2).any():
            return False
    return (_cached_signs(d, tol)[0] is not None
            or not has_coplanar_triple(pts, tol.general_position))


_SAMPLE_TRIES = 64  # draws before sample_points gives up on a distribution


def sample_points(n: int, dist: DistributionSpec, rng,
                  tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """n points from the distribution, rejection-resampled until they are in
    general position with all pairs well separated from equality and
    antipodality.  A draw whose pairs pass gets the orientation stage of
    its complete drawing, which decides where its guard passes: every
    |det| then exceeds general_position, has_coplanar_triple's
    (p_i x p_j).p_l among them, bit for bit.  Where the guard refuses,
    has_coplanar_triple decides.  Validation reuses the stage's run."""
    if n < 1:
        raise ValueError("need at least one point")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    for _ in range(_SAMPLE_TRIES):
        pts = dist.draw(rng, n)
        if _points_usable(pts, tol):
            return pts
    raise SamplingError(
        f"no usable {n}-point sample in {_SAMPLE_TRIES} draws; the "
        "distribution may concentrate near a great circle")


# Attempts per trial before a degenerate sample stream is given up.
_MAX_TRIES = 16


def _count_with_retries(n: int, dist: DistributionSpec, prefix: tuple,
                        tol: ToleranceConfig, workers: int) -> int:
    """random_drawing_cr's count, attempt a drawing from the stream
    [*prefix, a]; a degenerate sample moves on to the next attempt."""
    for attempt in range(_MAX_TRIES):
        rng = np.random.default_rng([*prefix, attempt])
        try:
            pts = sample_points(n, dist, rng, tol)
            d = complete_drawing_from_points(pts, tol)
            return count_crossings(d, tol, workers=workers).total
        except DegenerateConfigurationError:
            continue
    raise SamplingError(f"no countable sample for stream {list(prefix)} "
                        f"in {_MAX_TRIES} attempts")


def random_drawing_cr(n: int, dist: DistributionSpec, seed: int,
                      tol: ToleranceConfig = DEFAULT_TOL,
                      workers: int = 1) -> int:
    """Crossing count of the geodesic complete-graph drawing on a random
    point sample drawn from the streams [seed, attempt]."""
    if n < 4:
        raise ValueError("crossings need n >= 4")
    return _count_with_retries(n, dist, (int(seed),), tol, workers)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    trials: int
    seed: int
    distribution: DistributionSpec = field(default_factory=DistributionSpec)

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("experiments need n >= 4")
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    counts: tuple[int, ...]
    hill: int
    runtime_seconds: float

    @property
    def ratios(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.hill

    def to_dict(self) -> dict:
        r = self.ratios
        return {
            "n": self.config.n,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "distribution": self.config.distribution.to_dict(),
            "hill": self.hill,
            "counts": list(self.counts),
            "ratio_mean": float(r.mean()),
            "ratio_variance": float(r.var(ddof=1)) if len(r) > 1 else 0.0,
            "ratio_min": float(r.min()),
            "ratio_max": float(r.max()),
            "runtime_seconds": self.runtime_seconds,
        }


def ratio_experiment(config: ExperimentConfig,
                     tol: ToleranceConfig = DEFAULT_TOL,
                     workers: int = 1) -> ExperimentResult:
    """Run the trials and report statistics of cr(D_n)/H(n).

    Trial t draws from the streams [seed, t, attempt]; identical configs
    give identical counts regardless of platform scheduling.
    """
    start = time.perf_counter()
    counts = [_count_with_retries(config.n, config.distribution,
                                  (config.seed, t), tol, workers)
              for t in range(config.trials)]
    elapsed = time.perf_counter() - start
    return ExperimentResult(config=config, counts=tuple(counts),
                            hill=hill_number(config.n),
                            runtime_seconds=elapsed)


# ---------------------------------------------------------------------------
# four-point census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusResult:
    """Histogram of crossing counts over random geodesic 4-point drawings."""

    trials: int
    seed: int
    distribution: DistributionSpec
    counts: tuple[int, int, int, int]
    runtime_seconds: float

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.trials for c in self.counts)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "distribution": self.distribution.to_dict(),
            "counts": list(self.counts),
            "fractions": list(self.fractions),
            "runtime_seconds": self.runtime_seconds,
        }


# Samples per vectorized census batch.  The chunk is part of the sample
# stream for "cap" (all z values, then all phi values, of a chunk's points)
# and for "antipodal_symmetrized" (base points, then flips), though not for
# "uniform": changing it changes those histograms.
_CENSUS_CHUNK = 20000


def _dependency(a, b, c, d) -> np.ndarray:
    """Coefficients (4, ...) of the linear dependency
    det(b,c,d) a - det(a,c,d) b + det(a,b,d) c - det(a,b,c) d = 0 of four
    stacks of 3 component arrays.

    Arcs ab and cd cross iff the coefficients of a and b share one strict
    sign and those of c and d the other: then a positive combination of a
    and b equals one of c and d.  Four points in general position therefore
    span exactly one crossing iff the signs split 2-2, and none otherwise.
    """
    ab, cd = cross3(a, b), cross3(c, d)
    return np.stack([dot3(b, cd), -dot3(a, cd), dot3(ab, d), -dot3(ab, c)])


def k4_census(trials: int, dist: DistributionSpec, seed: int,
              tol: ToleranceConfig = DEFAULT_TOL) -> CensusResult:
    """Histogram count_crossings over random 4-point geodesic drawings.

    A sample has one crossing iff the signs of its linear dependency split
    2-2 (see _dependency), so bins 2 and 3 stay empty.  Samples with a
    coefficient in the sign dead zone (a measure-zero event) are redrawn
    from derived streams until the census holds exactly ``trials`` valid
    draws.  Round r draws its chunks of _CENSUS_CHUNK samples from the
    stream [seed, r]; for the "cap" and "antipodal_symmetrized" kinds the
    chunk size shapes that stream, so it is fixed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    start = time.perf_counter()
    hist = np.zeros(4, dtype=np.int64)
    remaining = trials
    round_no = 0
    while remaining > 0:
        if round_no > 64:
            raise SamplingError("census resampling did not converge")
        rng = np.random.default_rng([int(seed), round_no])
        todo = remaining
        remaining = 0
        while todo > 0:
            size = min(_CENSUS_CHUNK, todo)
            todo -= size
            pts = dist.draw(rng, 4 * size).reshape(size, 4, 3)
            # (4 points, 3 components, size) for contiguous components
            lam = _dependency(*np.ascontiguousarray(pts.transpose(1, 2, 0)))
            ok = np.all(np.abs(lam) > tol.sign, axis=0)
            valid = np.count_nonzero(ok)
            one = np.count_nonzero(
                ok & (np.count_nonzero(lam > 0.0, axis=0) == 2))
            hist[:2] += valid - one, one
            remaining += size - valid
        round_no += 1
    elapsed = time.perf_counter() - start
    return CensusResult(trials=trials, seed=int(seed), distribution=dist,
                        counts=tuple(int(c) for c in hist),
                        runtime_seconds=elapsed)
