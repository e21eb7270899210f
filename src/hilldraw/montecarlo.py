"""Random geodesic drawings: sampling, crossing statistics, and the
empirical convergence of cr/H(n) toward 1.

Every experiment is reproducible: trial t of an experiment with seed s
draws from ``numpy.random.default_rng([s, t])``, so results do not depend
on scheduling or trial order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drawing import complete_drawing_from_points, count_crossings
from .formulas import hill_number
from .geom import (DEFAULT_TOL, DegenerateConfigurationError,
                   ToleranceConfig, has_coplanar_triple, row_blocks)


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
            pts = rng.normal(size=(size, 3))
            return pts / np.linalg.norm(pts, axis=1, keepdims=True)
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
    """General position plus no (near-)equal or (near-)antipodal pair."""
    ii, jj = np.triu_indices(len(pts), 1)
    for start, stop in row_blocks(len(ii), 3):
        cr = np.cross(pts[ii[start:stop]], pts[jj[start:stop]])
        if np.any(np.einsum("ij,ij->i", cr, cr)
                  <= tol.general_position ** 2):
            return False
    return not has_coplanar_triple(pts, tol.general_position)


def sample_points(n: int, dist: DistributionSpec, rng,
                  tol: ToleranceConfig = DEFAULT_TOL,
                  max_tries: int = 64) -> np.ndarray:
    """n points from the distribution, rejection-resampled until they are in
    general position with all pairs well separated from equality and
    antipodality."""
    if n < 1:
        raise ValueError("need at least one point")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    for _ in range(max_tries):
        pts = dist.draw(rng, n)
        if _points_usable(pts, tol):
            return pts
    raise SamplingError(
        f"no usable {n}-point sample in {max_tries} draws; the distribution "
        "may concentrate near a great circle")


def random_drawing_cr(n: int, dist: DistributionSpec, seed: int,
                      tol: ToleranceConfig = DEFAULT_TOL,
                      workers: int = 1, max_tries: int = 16) -> int:
    """Crossing count of the geodesic complete-graph drawing on a random
    point sample.  Degenerate samples are rejected and redrawn from a
    derived stream, keeping the result a pure function of the seed."""
    if n < 4:
        raise ValueError("crossings need n >= 4")
    for attempt in range(max_tries):
        rng = np.random.default_rng([int(seed), attempt])
        try:
            pts = sample_points(n, dist, rng, tol)
            d = complete_drawing_from_points(
                pts, tol, provenance={"seed": int(seed), "attempt": attempt})
            return count_crossings(d, tol, workers=workers).total
        except DegenerateConfigurationError:
            continue
    raise SamplingError(f"no countable sample for seed {seed} "
                        f"in {max_tries} attempts")


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

    Trial t uses the derived seed [seed, t]; identical configs give
    identical counts regardless of platform scheduling.
    """
    start = time.perf_counter()
    counts = [_trial_count(config, t, tol, workers)
              for t in range(config.trials)]
    elapsed = time.perf_counter() - start
    return ExperimentResult(config=config, counts=tuple(counts),
                            hill=hill_number(config.n),
                            runtime_seconds=elapsed)


def _trial_count(config: ExperimentConfig, trial: int,
                 tol: ToleranceConfig, workers: int) -> int:
    for attempt in range(16):
        rng = np.random.default_rng([config.seed, trial, attempt])
        try:
            pts = sample_points(config.n, config.distribution, rng, tol)
            d = complete_drawing_from_points(
                pts, tol,
                provenance={"seed": config.seed, "trial": trial,
                            "attempt": attempt})
            return count_crossings(d, tol, workers=workers).total
        except DegenerateConfigurationError:
            continue
    raise SamplingError(f"trial {trial}: no countable sample in 16 attempts")


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


def _batch_arcs_cross(A, B, C, D, sign_tol: float):
    """Vectorized open-arc crossing test on rows; returns (crossing mask,
    valid mask).  Rows whose configuration is degenerate are flagged
    invalid instead of raising."""
    N1 = np.cross(A, B)
    N2 = np.cross(C, D)
    n1 = np.linalg.norm(N1, axis=1, keepdims=True)
    n2 = np.linalg.norm(N2, axis=1, keepdims=True)
    valid = (n1[:, 0] > sign_tol) & (n2[:, 0] > sign_tol)
    N1 = np.where(valid[:, None], N1 / np.where(n1 > 0, n1, 1.0), 0.0)
    N2 = np.where(valid[:, None], N2 / np.where(n2 > 0, n2, 1.0), 0.0)
    X = np.cross(N1, N2)
    nx = np.linalg.norm(X, axis=1, keepdims=True)
    valid &= nx[:, 0] > sign_tol
    X = X / np.where(nx > 0, nx, 1.0)
    d1 = np.einsum("ij,ij->i", X, np.cross(B, N1))
    d2 = np.einsum("ij,ij->i", X, np.cross(N1, A))
    d3 = np.einsum("ij,ij->i", X, np.cross(D, N2))
    d4 = np.einsum("ij,ij->i", X, np.cross(N2, C))
    stack = np.stack([d1, d2, d3, d4], axis=1)
    valid &= np.min(np.abs(stack), axis=1) > sign_tol
    crossing = (stack > 0).all(axis=1) | (stack < 0).all(axis=1)
    return crossing & valid, valid


def k4_census(trials: int, dist: DistributionSpec, seed: int,
              tol: ToleranceConfig = DEFAULT_TOL,
              chunk: int = 20000) -> CensusResult:
    """Histogram count_crossings over random 4-point geodesic drawings.

    Fully vectorized; degenerate samples (a measure-zero event) are
    redrawn from derived streams until the census holds exactly ``trials``
    valid draws.
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
            size = min(chunk, todo)
            todo -= size
            pts = dist.draw(rng, 4 * size).reshape(size, 4, 3)
            a, b, c, d = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
            c1, v1 = _batch_arcs_cross(a, b, c, d, tol.sign)
            c2, v2 = _batch_arcs_cross(a, c, b, d, tol.sign)
            c3, v3 = _batch_arcs_cross(a, d, b, c, tol.sign)
            ok = v1 & v2 & v3
            counts = (c1.astype(np.int64) + c2.astype(np.int64)
                      + c3.astype(np.int64))[ok]
            hist += np.bincount(counts, minlength=4)
            remaining += int(size - ok.sum())
        round_no += 1
    elapsed = time.perf_counter() - start
    return CensusResult(trials=trials, seed=int(seed), distribution=dist,
                        counts=tuple(int(c) for c in hist),
                        runtime_seconds=elapsed)
