"""Detection performance of power-constrained sensor networks over a
shared-bandwidth channel.

A fleet of Ns sensors observes a common antipodal signal in Gaussian noise,
amplifies and forwards over random binary signatures of length N under a
total power cap P, and a fusion center thresholds the log-likelihood ratio
of the received chip vector.  The package computes exact finite-size error
probabilities for a fixed signature matrix, their deterministic
large-system limits (N -> inf at fixed load alpha = Ns/N), and Monte Carlo
estimates of the full generative chain, plus convergence experiments that
measure how fast code-dependent quantities approach their limits.
"""

__version__ = "0.7.0"

from .asymptotics import (
    AsymptoticParams,
    asymptotic_params,
    asymptotic_performance,
    beta0,
    gamma,
    large_alpha_pe,
    mu,
    single_sensor_pe,
)
from .convergence import (
    ConvergenceRecord,
    cross_term_experiment,
    diagonal_term_experiment,
    mil_residual_experiment,
    quadratic_form_convergence,
)
from .core import (
    BAYES,
    FIXED,
    NEYMAN_PEARSON,
    DetectorSpec,
    SystemParams,
    amplifier_gain,
    detector_bounds,
    sensors_for_load,
    validate,
)
from .errors import (
    CdmaFusionError,
    DimensionMismatch,
    DomainError,
    InvalidParam,
    InvalidSpreadingMatrix,
    NumericalFailure,
    ParseError,
)
from .exact import (
    ChannelModel,
    McDiagnostics,
    PerformanceReport,
    channel_covariance,
    exact_performance,
    quadratic_form,
)
from .montecarlo import McConfig, estimate, simulate_trials
from .spreading import GENERATOR_ID, SpreadingMatrix

__all__ = [
    "AsymptoticParams",
    "BAYES",
    "CdmaFusionError",
    "ChannelModel",
    "ConvergenceRecord",
    "DetectorSpec",
    "DimensionMismatch",
    "DomainError",
    "FIXED",
    "GENERATOR_ID",
    "InvalidParam",
    "InvalidSpreadingMatrix",
    "McConfig",
    "McDiagnostics",
    "NEYMAN_PEARSON",
    "NumericalFailure",
    "ParseError",
    "PerformanceReport",
    "SpreadingMatrix",
    "SystemParams",
    "amplifier_gain",
    "asymptotic_params",
    "asymptotic_performance",
    "beta0",
    "channel_covariance",
    "cross_term_experiment",
    "detector_bounds",
    "diagonal_term_experiment",
    "estimate",
    "exact_performance",
    "gamma",
    "large_alpha_pe",
    "mil_residual_experiment",
    "mu",
    "quadratic_form",
    "quadratic_form_convergence",
    "sensors_for_load",
    "simulate_trials",
    "single_sensor_pe",
    "validate",
]
