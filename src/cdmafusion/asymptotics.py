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

The quadratic is homogeneous in the unit of power, so the route solves it
in the units U of core.snr_groups, for U beta0 at gamma / U and sigma_w2 / U
<= 1.  The limiting form in those units, q = Ns / (1 / (U beta0) + c), goes
through exact.exact_report like one channel's; at infinite load it is
q = Ns / w, and for a single sensor q = Ns / (w + c Ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DetectorSpec, SystemParams, log_tails, root_snr, snr_groups
from .errors import DomainError, NumericalFailure
from .exact import PerformanceReport, exact_report


@dataclass(frozen=True)
class AsymptoticParams:
    """The deterministic quantities of the large-system limit."""

    alpha: float
    gamma: float
    beta0: float
    mu: float
    q: float  # the limiting form in the units of core.snr_groups, as exact.quadratic_form


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
    b = alpha * (gamma_val + sigma_w2) - gamma_val
    # sqrt(b^2 + 4 a alpha), a = gamma sigma_w2, in scaled form: through hypot
    # and with sqrt(a) from its factors, so it survives where b^2 or a alpha
    # leave the float range
    root = math.hypot(b, 2.0 * math.sqrt(gamma_val) * math.sqrt(sigma_w2) * math.sqrt(alpha))
    if b >= 0.0:
        # conjugate form: avoids root - b cancellation for large alpha.  The
        # denominator is 0 only if sqrt(a alpha) underflows with b == 0, where
        # the root sqrt(alpha / a) is past every float
        den = b + root
        return 2.0 * alpha / den if den > 0.0 else math.inf
    # b < 0 needs gamma > 0; dividing by gamma and sigma_w2 in turn keeps
    # their product, which can underflow to 0, out of the denominator
    return (root - b) / (2.0 * gamma_val) / sigma_w2


def mu(params: SystemParams, beta0_val: float) -> float:
    """Limiting inverse detection SNR: sigma_v2/Ns + (m^2 + sigma_v2)/(P beta0).

    The first term is the averaged observation noise left after fusion; the
    second is the channel-plus-interference penalty, inf where P beta0
    underflows.  Uses the finite-size sensor count Ns of params.
    """
    if not (isinstance(beta0_val, (int, float)) and math.isfinite(beta0_val) and beta0_val > 0):
        raise DomainError(f"mu requires beta0 > 0, got {beta0_val!r}")
    penalty = params.P * beta0_val
    return params.sigma_v2 / params.Ns + ((params.m**2 + params.sigma_v2) / penalty if penalty > 0.0 else math.inf)


def asymptotic_params(params: SystemParams) -> AsymptoticParams:
    """Chain alpha -> gamma -> beta0 -> mu for one parameter point.

    Where U beta0 overflows, as 1 / w does, the physical beta0 is solved
    directly; NumericalFailure where that overflows too, which takes a
    sigma_w2 below the normal float range.
    """
    a = params.alpha
    unit, c, w, _ = snr_groups(params)
    g = gamma(params)
    b = beta0(a, g / unit, w)
    b_phys = b / unit if b < math.inf else beta0(a, g, params.sigma_w2)
    if b_phys == math.inf:
        raise NumericalFailure(f"beta0 overflows to inf at N={params.N}, Ns={params.Ns}, sigma_w2={params.sigma_w2!r}")
    return AsymptoticParams(alpha=a, gamma=g, beta0=b_phys, mu=mu(params, b_phys), q=params.Ns / (1.0 / b + c))


def asymptotic_performance(params: SystemParams, spec: DetectorSpec) -> PerformanceReport:
    """Large-system error probabilities at the deterministic limit.

    The tails of exact.exact_report at the limiting form, whose root SNR is
    m / sqrt(mu); the threshold is resolved against it, so Bayes, fixed and
    false-alarm-pinned detectors all remain meaningful.
    """
    return exact_report(params, asymptotic_params(params).q, spec)


def _zero_threshold_pe(params: SystemParams, q: float) -> float:
    # at tau == 0 the two tails coincide, so either one is the error probability
    return math.exp(log_tails(root_snr(params, q), 0.0)[0])


def large_alpha_pe(params: SystemParams) -> float:
    """Saturation floor of the error probability as the load grows without bound.

    Along the physical scaling (both Ns and Ns/N large) the zero-threshold
    error probability tends to q(sqrt((P / sigma_w2) / (1 + sigma_v2 / m^2))),
    the tail at x = P / (sigma_w2 (m^2 + sigma_v2)).  Total for sigma_v2 >= 0.
    """
    return _zero_threshold_pe(params, params.Ns / snr_groups(params)[2])


def single_sensor_pe(params: SystemParams) -> float:
    """Zero-threshold error probability when one sensor gets the whole budget.

    q(sqrt(P m^2 / (P sigma_v2 + sigma_w2 (m^2 + sigma_v2)))), the tail at
    x = P / (P sigma_v2 + sigma_w2 (m^2 + sigma_v2)): the mu-form with
    Ns = 1 and no interference.  Total for sigma_v2 >= 0.
    """
    _, c, w, _ = snr_groups(params)
    return _zero_threshold_pe(params, params.Ns / (w + c * params.Ns))
