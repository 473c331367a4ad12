"""Closed-form large-system performance under random signatures.

As N grows with the load alpha = Ns/N held fixed, the code-dependent
quadratic form concentrates on a deterministic limit: g^2 qf -> 1/mu with

    mu    = sigma_v2 / Ns + (m^2 + sigma_v2) / (P beta0),
    gamma = (P / N) sigma_v2 / (m^2 + sigma_v2),

and beta0 the positive root of the fixed-point quadratic

    gamma sigma_w2 b^2 + (alpha (gamma + sigma_w2) - gamma) b - alpha = 0.

gamma is the per-chip received power of a single sensor's relayed
observation noise, i.e. the multi-access interference each signature
contributes; beta0 plays the role of an effective SNR degradation factor
for the matched linear receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DetectorSpec, SystemParams, amplifier_gain, q_function, threshold_for
from .errors import DomainError, NumericalFailure
from .exact import ASYMPTOTIC, PerformanceReport


@dataclass(frozen=True)
class AsymptoticParams:
    """The deterministic quantities of the large-system limit."""

    alpha: float
    gamma: float
    beta0: float
    mu: float


def gamma(params: SystemParams, *, zero_noise_limit: bool = False) -> float:
    """Interference power per chip contributed by one relayed noise path.

    Equals (P / N) sigma_v2 / (m^2 + sigma_v2) = g^2 sigma_v2 alpha.  With
    sigma_v2 == 0 the model has no multi-access interference; that value is
    only returned when zero_noise_limit is set, otherwise it is refused so
    a silently degenerate limit cannot be produced by accident.
    """
    if params.sigma_v2 == 0.0:
        if zero_noise_limit:
            return 0.0
        raise DomainError(
            "gamma degenerates to 0 when sigma_v2 == 0; pass zero_noise_limit=True to accept it"
        )
    return (params.P / params.N) * params.sigma_v2 / (params.m**2 + params.sigma_v2)


def beta0(alpha: float, gamma_val: float, sigma_w2: float, *, zero_gamma_limit: bool = False) -> float:
    """Positive root of the load fixed-point quadratic.

    Solves gamma sigma_w2 b^2 + (alpha (gamma + sigma_w2) - gamma) b - alpha
    = 0 for its unique positive root.  The conjugate form is used when the
    linear coefficient is positive so the root survives extreme loads
    (alpha ~ 1e4 with gamma ~ 1e-6) without cancellation.  At alpha == 0 the
    root is exactly 1/sigma_w2.  gamma == 0 collapses the quadratic to a
    linear equation with root 1/sigma_w2; that value is only returned when
    zero_gamma_limit is set.
    """
    if not (isinstance(sigma_w2, (int, float)) and math.isfinite(sigma_w2) and sigma_w2 > 0):
        raise DomainError(f"beta0 requires sigma_w2 > 0, got {sigma_w2!r}")
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha >= 0):
        raise DomainError(f"beta0 requires finite alpha >= 0, got {alpha!r}")
    if not (isinstance(gamma_val, (int, float)) and math.isfinite(gamma_val) and gamma_val >= 0):
        raise DomainError(f"beta0 requires finite gamma >= 0, got {gamma_val!r}")
    if gamma_val == 0.0:
        if zero_gamma_limit:
            return 1.0 / sigma_w2
        raise DomainError(
            "beta0 at gamma == 0 is the interference-free limit 1/sigma_w2; "
            "pass zero_gamma_limit=True to accept it"
        )
    if alpha == 0.0:
        return 1.0 / sigma_w2
    a = gamma_val * sigma_w2
    b = alpha * (gamma_val + sigma_w2) - gamma_val
    disc = b * b + 4.0 * a * alpha
    root = math.sqrt(disc)
    if b >= 0.0:
        # conjugate form: avoids root - b cancellation for large alpha
        return 2.0 * alpha / (b + root)
    return (root - b) / (2.0 * a)


def beta0_large_load_limit(gamma_val: float, sigma_w2: float) -> float:
    """Limit of beta0 as alpha -> infinity at fixed gamma: 1/(gamma + sigma_w2).

    Note this is a fixed-gamma limit; along the physical scaling gamma
    itself shrinks like 1/N, which is why the joint limit of the full
    error-probability chain differs (see large_alpha_pe).
    """
    if not (math.isfinite(sigma_w2) and sigma_w2 > 0):
        raise DomainError(f"beta0_large_load_limit requires sigma_w2 > 0, got {sigma_w2!r}")
    if not (math.isfinite(gamma_val) and gamma_val >= 0):
        raise DomainError(f"beta0_large_load_limit requires gamma >= 0, got {gamma_val!r}")
    return 1.0 / (gamma_val + sigma_w2)


def mu(params: SystemParams, beta0_val: float) -> float:
    """Limiting inverse detection SNR: sigma_v2/Ns + (m^2 + sigma_v2)/(P beta0).

    The first term is the averaged observation noise left after fusion; the
    second is the channel-plus-interference penalty.  Uses the finite-size
    sensor count Ns of params.
    """
    if not (isinstance(beta0_val, (int, float)) and math.isfinite(beta0_val) and beta0_val > 0):
        raise DomainError(f"mu requires beta0 > 0, got {beta0_val!r}")
    return params.sigma_v2 / params.Ns + (params.m**2 + params.sigma_v2) / (params.P * beta0_val)


def asymptotic_params(params: SystemParams, *, zero_noise_limit: bool = False) -> AsymptoticParams:
    """Chain alpha -> gamma -> beta0 -> mu for one parameter point.

    Raises NumericalFailure when extreme but valid parameters (P and
    sigma_w2 near the float range) underflow beta0 to 0.
    """
    a = params.alpha
    g = gamma(params, zero_noise_limit=zero_noise_limit)
    b = beta0(a, g, params.sigma_w2, zero_gamma_limit=zero_noise_limit)
    if b == 0.0:
        raise NumericalFailure(
            f"beta0 underflows to 0 at N={params.N}, Ns={params.Ns}, P={params.P!r}, "
            f"sigma_w2={params.sigma_w2!r}"
        )
    return AsymptoticParams(alpha=a, gamma=g, beta0=b, mu=mu(params, b))


def asymptotic_performance(
    params: SystemParams, spec: DetectorSpec, *, zero_noise_limit: bool = False
) -> PerformanceReport:
    """Large-system error probabilities at the deterministic limit.

    pf = q(sqrt(mu) (tau + 2 m^2 / mu) / (2 m)) and symmetrically for pm;
    the threshold is resolved against the limiting quadratic form
    qf = 1 / (mu g^2) so Bayes, fixed and false-alarm-pinned detectors all
    remain meaningful.
    """
    ap = asymptotic_params(params, zero_noise_limit=zero_noise_limit)
    g = amplifier_gain(params)
    qf_limit = 1.0 / (ap.mu * g * g)
    tau = threshold_for(spec, params, qf_limit)
    m = params.m
    root_mu = math.sqrt(ap.mu)
    pf = q_function(root_mu * (tau + 2.0 * m * m / ap.mu) / (2.0 * m))
    pm = q_function(root_mu * (2.0 * m * m / ap.mu - tau) / (2.0 * m))
    pe = params.p0 * pf + params.p1 * pm
    return PerformanceReport(pf=pf, pm=pm, pe=pe, method=ASYMPTOTIC, tau_prime=tau)


def minimum_error_probability(params: SystemParams, *, zero_noise_limit: bool = False) -> float:
    """Large-system error probability of the zero-threshold detector: q(m/sqrt(mu)).

    This is the Bayes-optimal value under equal priors.
    """
    ap = asymptotic_params(params, zero_noise_limit=zero_noise_limit)
    return q_function(params.m / math.sqrt(ap.mu))


def large_alpha_pe(params: SystemParams) -> float:
    """Saturation floor of the error probability as the load grows without bound.

    Along the physical scaling (both Ns and Ns/N large) the zero-threshold
    error probability tends to q(sqrt((P / sigma_w2) / (1 + sigma_v2 / m^2))).
    Total for sigma_v2 >= 0.
    """
    return q_function(math.sqrt((params.P / params.sigma_w2) / (1.0 + params.sigma_v2 / params.m**2)))


def single_sensor_pe(params: SystemParams) -> float:
    """Zero-threshold error probability when one sensor gets the whole budget.

    q(sqrt(P m^2 / (P sigma_v2 + sigma_w2 (m^2 + sigma_v2)))); equivalently
    q(1 / sqrt(sigma_v2 / m^2 + (m^2 + sigma_v2) sigma_w2 / (P m^2))), the
    mu-form with Ns = 1 and no interference.  Total for sigma_v2 >= 0.
    """
    num = params.P * params.m**2
    den = params.P * params.sigma_v2 + params.sigma_w2 * (params.m**2 + params.sigma_v2)
    return q_function(math.sqrt(num / den))
