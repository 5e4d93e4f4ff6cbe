"""Regularized inexact alternating projections for ill-posed feasibility problems.

The package provides set oracles with exact projections, Bregman-divergence
ball fattenings of data constraints with exact and line-segment approximate
projections, alternating-projection drivers (exact, inexact, and regularized
extrapolated), convergence-rate prediction and measurement, regularity
constants, and a synthetic phase-retrieval demonstration with a CLI.
"""

from .algorithms import (FixedPointError, GammaConditionError, InexactAPConfig,
                         RatePrediction, RateMeasurementError, StepConditionError,
                         exact_alternating_projections,
                         inexact_alternating_projections, measure_rate,
                         predict_rate, regularized_extrapolated_ap)
from .core import (COMPLEX, REAL, TERMINATION_REASONS, DimensionMismatchError,
                   IterationTrace, NormalConeUnavailableError, Point, SetOracle,
                   SolverError, TraceRecord, canonical_point, lerp)
from .divergences import (EuclideanKernel, ForwardMap, FourierIntensityMap,
                          IdentityMap, KernelDomainError, KullbackLeiblerKernel,
                          LinearMap, RegularizedSet, SquareMap,
                          bregman_line_boundary)
from .phase import (PhaseInstance, ReconstructionResult, aligned_error,
                    box_support, cup_object, divergence_ball, export_grid,
                    interiority_check, load_instance, loose_support, reconstruct,
                    save_instance, smooth_object, synthesize)
from .projectors import (AffineSet, BoxMagnitudeSet, FourierMagnitudeSet,
                         HalfspaceSet, NewtonConvergenceError,
                         RegularizedSetOracle, SupportNonnegSet, project_affine,
                         project_fourier_magnitude, project_regularized_approx,
                         project_regularized_exact)
from .regularity import RegularityEstimate, cbar_sampled, cbar_subspaces

__version__ = "0.1.0"

__all__ = [
    "AffineSet", "BoxMagnitudeSet", "COMPLEX", "DimensionMismatchError",
    "EuclideanKernel", "FixedPointError", "ForwardMap", "FourierIntensityMap",
    "FourierMagnitudeSet",
    "GammaConditionError", "HalfspaceSet", "IdentityMap", "InexactAPConfig",
    "IterationTrace", "KernelDomainError", "KullbackLeiblerKernel", "LinearMap",
    "NewtonConvergenceError", "NormalConeUnavailableError", "PhaseInstance",
    "Point", "RatePrediction", "RateMeasurementError", "REAL",
    "ReconstructionResult", "RegularityEstimate", "RegularizedSet",
    "RegularizedSetOracle", "SetOracle", "SolverError", "SquareMap",
    "StepConditionError",
    "SupportNonnegSet", "TERMINATION_REASONS", "TraceRecord", "aligned_error",
    "box_support", "bregman_line_boundary", "canonical_point", "cbar_sampled",
    "cbar_subspaces",
    "cup_object", "divergence_ball", "exact_alternating_projections",
    "export_grid", "inexact_alternating_projections", "interiority_check",
    "lerp", "load_instance", "loose_support",
    "measure_rate", "predict_rate", "project_affine", "project_fourier_magnitude",
    "project_regularized_approx", "project_regularized_exact",
    "reconstruct", "regularized_extrapolated_ap",
    "save_instance", "smooth_object", "synthesize",
]
