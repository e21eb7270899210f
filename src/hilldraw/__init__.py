"""Antipodal geodesic drawings of complete graphs on the unit sphere.

Doubling a general-position point set with its antipodes and joining every
non-antipodal pair by a shorter geodesic yields drawings whose crossing
totals hit the Hill number H(n) exactly once pairwise disjoint matching
half-circles are added.  This package constructs such drawings, counts
crossings geometrically two independent ways (orientation signs and a
pairwise sweep), verifies every closed-form count by exact integer
comparison, and measures how random geodesic drawings approach the same
bound.
"""

from .construct import (BlowupPlan, ConstructionError, HalfCircleArrangement,
                        PerturbationError, blowup, default_plan_chain,
                        perturb, recursive_construct, seed_four, seed_single,
                        seed_two)
from .drawing import (AntipodalConfig, CrossingReport, Drawing, DrawingKind,
                      HalfCircleAssignment, VerificationReport, add_apex,
                      add_random_apex, build_cocktail_party,
                      complete_drawing_from_points, config_from_drawing,
                      count_crossings, count_crossings_by_circle_pairs,
                      delete_vertex, double, extend_partial_matching,
                      extend_to_complete, make_assignment, random_assignment,
                      strength, verify)
from .formulas import hill_number, partial_matching_target, per_vertex_target
from .geom import (DEFAULT_TOL, DegenerateConfigurationError, ToleranceConfig,
                   antipode, is_general_position, rotate, unit)
from .montecarlo import (CensusResult, DistributionSpec, ExperimentConfig,
                         ExperimentResult, SamplingError, k4_census,
                         random_drawing_cr, ratio_experiment, sample_points)

__version__ = "1.0.0"

__all__ = [
    "AntipodalConfig", "BlowupPlan", "CensusResult", "ConstructionError",
    "CrossingReport", "DEFAULT_TOL", "DegenerateConfigurationError",
    "DistributionSpec", "Drawing", "DrawingKind", "ExperimentConfig",
    "ExperimentResult", "HalfCircleArrangement", "HalfCircleAssignment",
    "PerturbationError", "SamplingError", "ToleranceConfig",
    "VerificationReport", "add_apex", "add_random_apex", "antipode",
    "blowup", "build_cocktail_party", "complete_drawing_from_points",
    "config_from_drawing", "count_crossings",
    "count_crossings_by_circle_pairs", "default_plan_chain",
    "delete_vertex", "double", "extend_partial_matching",
    "extend_to_complete", "hill_number", "is_general_position",
    "k4_census", "make_assignment", "partial_matching_target",
    "per_vertex_target", "perturb", "random_assignment",
    "random_drawing_cr", "ratio_experiment", "recursive_construct",
    "rotate", "sample_points", "seed_four", "seed_single", "seed_two",
    "strength", "unit", "verify",
]
