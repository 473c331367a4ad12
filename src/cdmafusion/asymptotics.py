"""Closed-form large-system performance under random signatures.

As N grows with the load alpha = Ns/N held fixed, the code-dependent
quadratic form concentrates on a deterministic limit: the detection SNR
g^2 qf -> 1/mu with

    mu    = sigma_v2 / Ns + (m^2 + sigma_v2) / (P beta0),
    gamma = (P / N) sigma_v2 / (m^2 + sigma_v2),

and beta0 the positive root of the fixed-point quadratic

    gamma sigma_w2 b^2 + (alpha (gamma + sigma_w2) - gamma) b - alpha = 0,

the random-spreading fixed point of Verdu & Shamai (IEEE Trans. IT, 1999).
gamma is the per-chip received power of a single sensor's relayed
observation noise, i.e. the multi-access interference each signature
contributes; beta0 plays the role of an effective SNR degradation factor
for the matched linear receiver.  With sigma_v2 == 0 there is no
interference: gamma = 0, beta0 = 1/sigma_w2 and mu = m^2 sigma_w2 / P.

Every error probability here is the Gaussian tail of core.log_tails at its
own detection SNR x: 1/mu in the large-system limit,
P / (sigma_w2 (m^2 + sigma_v2)) at infinite load, and
P / (P sigma_v2 + sigma_w2 (m^2 + sigma_v2)) for a single sensor.  Where
mu or that denominator underflows to 0, x is +inf: pe = 0, log_pe = -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DetectorSpec, SystemParams, log_tails
from .errors import DomainError, NumericalFailure
from .exact import ASYMPTOTIC, PerformanceReport, tail_report


@dataclass(frozen=True)
class AsymptoticParams:
    """The deterministic quantities of the large-system limit."""

    alpha: float
    gamma: float
    beta0: float
    mu: float


def gamma(params: SystemParams) -> float:
    """Interference power per chip contributed by one relayed noise path.

    Equals (P / N) sigma_v2 / (m^2 + sigma_v2) = g^2 sigma_v2 alpha, and 0
    when sigma_v2 == 0.  The noise fraction is formed first, so the value
    stays finite for every valid sigma_v2.
    """
    return (params.P / params.N) * (params.sigma_v2 / (params.m**2 + params.sigma_v2))


def beta0(alpha: float, gamma_val: float, sigma_w2: float) -> float:
    """Positive root of the load fixed-point quadratic.

    Solves gamma sigma_w2 b^2 + (alpha (gamma + sigma_w2) - gamma) b - alpha
    = 0 for its unique positive root.  The conjugate form is used when the
    linear coefficient is positive so the root survives extreme loads
    (alpha ~ 1e4 with gamma ~ 1e-6) without cancellation; it also covers
    gamma == 0, where the quadratic is linear with root 1/sigma_w2.  At
    alpha == 0 the root is exactly 1/sigma_w2.
    """
    if not (isinstance(sigma_w2, (int, float)) and math.isfinite(sigma_w2) and sigma_w2 > 0):
        raise DomainError(f"beta0 requires sigma_w2 > 0, got {sigma_w2!r}")
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha >= 0):
        raise DomainError(f"beta0 requires finite alpha >= 0, got {alpha!r}")
    if not (isinstance(gamma_val, (int, float)) and math.isfinite(gamma_val) and gamma_val >= 0):
        raise DomainError(f"beta0 requires finite gamma >= 0, got {gamma_val!r}")
    if alpha == 0.0:
        return 1.0 / sigma_w2
    a = gamma_val * sigma_w2
    b = alpha * (gamma_val + sigma_w2) - gamma_val
    if b >= 0.0:
        # conjugate form: avoids root - b cancellation for large alpha.  The
        # root sqrt(b^2 + 4 a alpha) is taken in scaled form, through hypot and
        # with sqrt(a) from its factors, so it survives where b^2 or a alpha
        # underflow; the denominator is then 0 only if sqrt(a alpha) underflows
        # with b == 0, where the root sqrt(alpha / a) is past every float
        root = math.hypot(b, 2.0 * math.sqrt(gamma_val) * math.sqrt(sigma_w2) * math.sqrt(alpha))
        den = b + root
        return 2.0 * alpha / den if den > 0.0 else math.inf
    return (math.sqrt(b * b + 4.0 * a * alpha) - b) / (2.0 * a)


def mu(params: SystemParams, beta0_val: float) -> float:
    """Limiting inverse detection SNR: sigma_v2/Ns + (m^2 + sigma_v2)/(P beta0).

    The first term is the averaged observation noise left after fusion; the
    second is the channel-plus-interference penalty.  Uses the finite-size
    sensor count Ns of params.
    """
    if not (isinstance(beta0_val, (int, float)) and math.isfinite(beta0_val) and beta0_val > 0):
        raise DomainError(f"mu requires beta0 > 0, got {beta0_val!r}")
    return params.sigma_v2 / params.Ns + (params.m**2 + params.sigma_v2) / (params.P * beta0_val)


def asymptotic_params(params: SystemParams) -> AsymptoticParams:
    """Chain alpha -> gamma -> beta0 -> mu for one parameter point.

    Raises NumericalFailure when extreme but valid parameters (P and
    sigma_w2 near the float range) overflow beta0 to inf, or underflow
    beta0 or the product P beta0 that mu divides by to 0.
    """
    a = params.alpha
    g = gamma(params)
    b = beta0(a, g, params.sigma_w2)
    if b == math.inf or params.P * b == 0.0:
        name = "beta0" if b in (0.0, math.inf) else "P beta0"
        limit = "overflows to inf" if b == math.inf else "underflows to 0"
        raise NumericalFailure(
            f"{name} {limit} at N={params.N}, Ns={params.Ns}, P={params.P!r}, "
            f"sigma_w2={params.sigma_w2!r}"
        )
    return AsymptoticParams(alpha=a, gamma=g, beta0=b, mu=mu(params, b))


def asymptotic_performance(params: SystemParams, spec: DetectorSpec) -> PerformanceReport:
    """Large-system error probabilities at the deterministic limit.

    The tails of exact.tail_report at the limiting detection SNR x = 1/mu;
    the threshold is resolved against the same x, so Bayes, fixed and
    false-alarm-pinned detectors all remain meaningful.
    """
    return tail_report(params, _snr(1.0, asymptotic_params(params).mu), spec, ASYMPTOTIC)


def _snr(num: float, den: float) -> float:
    # a denominator that underflowed to 0 leaves an SNR past every float, where the tails vanish
    return num / den if den > 0.0 else math.inf


def _zero_threshold_pe(x: float, m: float) -> float:
    # at tau == 0 the two tails coincide, so either one is the error probability
    return math.exp(log_tails(x, m, 0.0)[0])


def large_alpha_pe(params: SystemParams) -> float:
    """Saturation floor of the error probability as the load grows without bound.

    Along the physical scaling (both Ns and Ns/N large) the zero-threshold
    error probability tends to q(sqrt((P / sigma_w2) / (1 + sigma_v2 / m^2))),
    the tail at x = P / (sigma_w2 (m^2 + sigma_v2)).  Total for sigma_v2 >= 0.
    """
    return _zero_threshold_pe((params.P / params.sigma_w2) / (params.m**2 + params.sigma_v2), params.m)


def single_sensor_pe(params: SystemParams) -> float:
    """Zero-threshold error probability when one sensor gets the whole budget.

    q(sqrt(P m^2 / (P sigma_v2 + sigma_w2 (m^2 + sigma_v2)))), the tail at
    x = P / (P sigma_v2 + sigma_w2 (m^2 + sigma_v2)): the mu-form with
    Ns = 1 and no interference.  Total for sigma_v2 >= 0.
    """
    den = params.P * params.sigma_v2 + params.sigma_w2 * (params.m**2 + params.sigma_v2)
    return _zero_threshold_pe(_snr(params.P, den), params.m)
