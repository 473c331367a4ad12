"""Scalar foundations: model parameters, integer and seed checks, the worker
map, Gaussian tails, gains, thresholds.

The model: Ns sensors each observe z_n = +-m + v_n with v_n ~ N(0, sigma_v2),
scale their observation by a common gain g, and transmit simultaneously over
N chips.  The fusion center receives the superposition in noise of per-chip
variance sigma_w2.  The total radiated power is capped at P, shared equally,
which pins the gain at g = sqrt(P / (Ns (m^2 + sigma_v2))).

Everything in this module is a pure function of its arguments.
"""

from __future__ import annotations

import math
import numbers
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DomainError, InvalidParam

BAYES = "bayes"
NEYMAN_PEARSON = "np"
FIXED = "fixed"

CRITERIA = (BAYES, NEYMAN_PEARSON, FIXED)

SEED_MAX = 2**64

_STANDARD_NORMAL = NormalDist()
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SERIES_BELOW = -37.0
"""Where log_ndtr leaves erfc for the asymptotic series: erfc(37 / sqrt 2) is
still a normal float, and a few lower it goes subnormal and then to 0."""


def is_int(x: object) -> bool:
    """True for Python and numpy integers, False for bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_count(name: str, value: object, what: str) -> int:
    """value as a Python int; InvalidParam unless it is an integer >= 1."""
    if not is_int(value) or value < 1:
        raise InvalidParam(name, value, f"{what} must be an integer >= 1")
    return int(value)


def check_seed(seed: object) -> int:
    """seed as a Python int; InvalidParam unless it is an integer in [0, 2**64)."""
    if not is_int(seed) or not 0 <= seed < SEED_MAX:
        raise InvalidParam("seed", seed, "seed must be an integer in [0, 2**64)")
    return int(seed)


def seed_sequence(master: int, *key: int) -> np.random.SeedSequence:
    """The child stream `key` of a master seed; every derived seed comes from here."""
    return np.random.SeedSequence(entropy=master, spawn_key=key)


def map_workers(fn, items, workers: int | None) -> list:
    """[fn(x) for x in items], on a pool of `workers` threads when workers > 1.

    The pool starts the items last to first, so a caller that lists its work
    cheapest first keeps the costliest item off the end of the schedule.  The
    results, and the first exception raised, still follow the items' order.
    """
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, x) for x in reversed(items)]
        return [f.result() for f in reversed(futures)]
    return [fn(x) for x in items]


def _is_real(x: object) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(float(x))


@dataclass(frozen=True)
class SystemParams:
    """Scalar parameters of the sensor network and its channel.

    N is the spreading length (chips per symbol), Ns the number of sensors,
    P the total power budget, m the signal amplitude under either hypothesis,
    sigma_v2 the per-sensor observation noise variance, sigma_w2 the per-chip
    receiver noise variance, and (p0, p1) the hypothesis priors.
    """

    N: int
    Ns: int
    P: float
    m: float
    sigma_v2: float
    sigma_w2: float
    p0: float = 0.5
    p1: float = 0.5

    def __post_init__(self):
        validate(self)

    @property
    def alpha(self) -> float:
        """Load ratio: sensors per chip."""
        return self.Ns / self.N


def validate(params: SystemParams) -> SystemParams:
    """Check every SystemParams constraint and return params unchanged.

    Raises InvalidParam naming the first violated constraint, checked in
    declaration order.
    """
    p = params
    for name, count, what in (("N", p.N, "spreading length"), ("Ns", p.Ns, "sensor count")):
        # every route forms floats from the counts, which an integer past the float range fails
        if check_count(name, count, what) > sys.float_info.max:
            raise InvalidParam(name, count, f"{what} must not exceed the float range")
    if not _is_real(p.P) or p.P <= 0:
        raise InvalidParam("P", p.P, "total power must be finite and > 0")
    if not _is_real(p.m) or p.m <= 0:
        raise InvalidParam("m", p.m, "signal amplitude must be finite and > 0")
    if not _is_real(p.sigma_v2) or p.sigma_v2 < 0:
        raise InvalidParam("sigma_v2", p.sigma_v2, "observation noise variance must be finite and >= 0")
    if not 0.0 < p.m * p.m + p.sigma_v2 < math.inf:
        raise InvalidParam("m", p.m, "sensor observation power m^2 + sigma_v2 must be finite and > 0")
    if not _is_real(p.sigma_w2) or p.sigma_w2 <= 0:
        raise InvalidParam("sigma_w2", p.sigma_w2, "receiver noise variance must be finite and > 0")
    if not _is_real(p.p0) or not 0.0 < p.p0 < 1.0:
        raise InvalidParam("p0", p.p0, "prior must lie strictly inside (0, 1)")
    if not _is_real(p.p1) or not 0.0 < p.p1 < 1.0:
        raise InvalidParam("p1", p.p1, "prior must lie strictly inside (0, 1)")
    if abs(p.p0 + p.p1 - 1.0) > 1e-12:
        raise InvalidParam("p1", p.p1, f"priors must sum to 1, got p0 + p1 = {p.p0 + p.p1!r}")
    return params


def sensors_for_load(alpha: float, N: int) -> int:
    """Sensor count at load alpha and spreading length N.

    Rounds alpha * N half away from zero; the result must be >= 1.
    """
    check_count("N", N, "spreading length")
    if not _is_real(alpha) or alpha <= 0:
        raise InvalidParam("alpha", alpha, "load ratio must be finite and > 0")
    # an N past the float range makes the product raise rather than overflow to inf
    load = alpha * N if N <= sys.float_info.max else math.inf
    if not math.isfinite(load):
        raise InvalidParam("alpha", alpha, f"load {alpha} at N={N} gives a non-finite sensor count")
    Ns = int(math.floor(load + 0.5))
    if Ns < 1:
        raise InvalidParam("alpha", alpha, f"load {alpha} at N={N} rounds to zero sensors")
    return Ns


def amplifier_gain(params: SystemParams) -> float:
    """Per-sensor relay gain that spends the power budget exactly.

    Each sensor transmits g * z_n with E z_n^2 = m^2 + sigma_v2, so the
    network radiates Ns g^2 (m^2 + sigma_v2) = P in total.
    """
    return math.sqrt(params.P / (params.Ns * (params.m**2 + params.sigma_v2)))


def log_ndtr(z: float) -> float:
    """log Phi(z), the log of the standard normal distribution function.

    Above 0 it is log1p of minus the upper tail erfc(z / sqrt 2) / 2, and from
    _SERIES_BELOW to 0 the log of Phi(z) = erfc(-z / sqrt 2) / 2.  Below that
    it is the log of the asymptotic series
    Phi(z) = phi(z) / (-z) (1 - 1/z^2 + 3/z^4 - ...), phi the normal density,
    cut after eight terms, which leaves an error under 1e-20 there; the result
    stays finite until -z^2 / 2 itself overflows.
    """
    if z > 0.0:
        return math.log1p(-0.5 * math.erfc(z / _SQRT2))
    if z > _SERIES_BELOW:
        return math.log(0.5 * math.erfc(-z / _SQRT2))
    w = 1.0 / (z * z)
    term, series = 1.0, 0.0
    for k in range(1, 9):
        term *= -(2 * k - 1) * w
        series += term
    return -0.5 * z * z - math.log(-z) - _LOG_SQRT_2PI + math.log1p(series)


def log_tails(x: float, m: float, tau: float) -> tuple[float, float]:
    """(log pf, log pm) of the threshold tau on a fusion statistic of detection SNR x.

    Every route reduces to x: g^2 qf for a fixed channel, 1/mu in the
    large-system limit.  The statistic is N(-+ 2 m^2 x, 4 m^2 x) under H0 and
    H1 and declares H1 when T >= tau, so pf = Q(m sqrt(x) + tau / (2 m sqrt(x)))
    and pm = Q(m sqrt(x) - tau / (2 m sqrt(x))).  Both are carried in the log
    domain, where they stay finite far past the point where the tails
    themselves underflow.  At x == 0 the statistic is identically zero and
    the tie rule decides: H1 whenever tau <= 0.
    """
    if x == 0.0:
        return (0.0, -math.inf) if tau <= 0.0 else (-math.inf, 0.0)
    sqrt_x = math.sqrt(x)
    # tau / (2 m sqrt(x)) without the product, which can underflow to 0 for x > 0
    root, half = m * sqrt_x, tau / (2.0 * m) / sqrt_x
    return log_ndtr(-half - root), log_ndtr(half - root)


def bayes_threshold(p0: float, p1: float) -> float:
    """Threshold on the fusion statistic minimizing p0 Pf + p1 Pm.

    The statistic is Gaussian with conditional means -+ 2 m^2 x and common
    variance 4 m^2 x (see log_tails), so the minimizer is log(p0 / p1),
    independent of the channel realization.
    """
    for name, val in (("p0", p0), ("p1", p1)):
        if not (_is_real(val) and 0.0 < val < 1.0):
            raise DomainError(f"bayes_threshold requires {name} in (0, 1), got {val!r}")
    if abs(p0 + p1 - 1.0) > 1e-12:
        raise DomainError(f"priors must sum to 1, got p0 + p1 = {p0 + p1!r}")
    return math.log(p0 / p1)


def np_threshold(x: float, m: float, alpha_fa: float) -> float:
    """Threshold pinning the false-alarm probability at alpha_fa.

    x is the detection SNR of the channel in use; the statistic under the
    null is N(-2 m^2 x, 4 m^2 x), so the threshold is
    2 m sqrt(x) Q^{-1}(alpha_fa) - 2 m^2 x, with Q the standard normal upper tail.
    """
    if not (_is_real(x) and x > 0):
        raise DomainError(f"np_threshold requires x > 0, got {x!r}")
    if not (_is_real(m) and m > 0):
        raise DomainError(f"np_threshold requires m > 0, got {m!r}")
    if not (_is_real(alpha_fa) and 0.0 < alpha_fa < 1.0):
        raise DomainError(f"np_threshold requires alpha_fa in (0, 1), got {alpha_fa!r}")
    return 2.0 * m * math.sqrt(x) * -_STANDARD_NORMAL.inv_cdf(alpha_fa) - 2.0 * m * m * x


@dataclass(frozen=True)
class DetectorSpec:
    """How the fusion threshold is chosen.

    criterion "bayes" minimizes the prior-weighted error probability,
    "np" pins the false-alarm probability at alpha_fa, and "fixed" uses
    the supplied tau_prime verbatim.
    """

    criterion: str = BAYES
    alpha_fa: float | None = None
    tau_prime: float | None = None

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise InvalidParam("criterion", self.criterion, f"one of {CRITERIA}")
        if self.criterion == NEYMAN_PEARSON:
            if self.alpha_fa is None or not (_is_real(self.alpha_fa) and 0.0 < self.alpha_fa < 1.0):
                raise InvalidParam("alpha_fa", self.alpha_fa, "criterion 'np' needs alpha_fa in (0, 1)")
        if self.criterion == FIXED:
            if self.tau_prime is None or not _is_real(self.tau_prime):
                raise InvalidParam("tau_prime", self.tau_prime, "criterion 'fixed' needs a finite tau_prime")


def threshold_for(spec: DetectorSpec, params: SystemParams, x: float) -> float:
    """Resolve the effective threshold for a channel of detection SNR x.

    np_threshold's formula is taken to its limits at the ends of its domain:
    0 at x == 0, where the statistic is identically 0 and the tie rule of
    log_tails decides, and -inf at x == inf (see exact.tail_report).
    """
    if spec.criterion == BAYES:
        return bayes_threshold(params.p0, params.p1)
    if spec.criterion == NEYMAN_PEARSON:
        if x == 0.0:
            return 0.0
        if x == math.inf:
            return -math.inf
        return np_threshold(x, params.m, spec.alpha_fa)
    return float(spec.tau_prime)
