"""Exact finite-size detection analysis for a fixed signature matrix.

Conditioned on either hypothesis the received chip vector is Gaussian,
r ~ N(-+ g m S 1, Sigma) with Sigma = g^2 sigma_v2 S S^T + sigma_w2 I.
Because the covariance is hypothesis-independent, the log-likelihood ratio
is the linear statistic T(r) = 2 g m (S 1)^T Sigma^{-1} r.  Both error
probabilities depend on the channel only through the detection SNR
x = g^2 qf, with qf = (S 1)^T Sigma^{-1} (S 1) the quadratic form; tail_report
turns x and a threshold into the report every analytic route returns, with
its tails carried in the log domain by core.log_tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .core import DetectorSpec, SystemParams, amplifier_gain, log_tails, threshold_for
from .errors import DimensionMismatch, NumericalFailure
from .spreading import SpreadingMatrix

EXACT = "exact"
ASYMPTOTIC = "asymptotic"
MONTECARLO = "montecarlo"


def _once(method):
    """A read-only attribute computed on first use and kept on the instance, with
    no class-wide lock (functools.cached_property holds one before Python 3.12)."""
    name = method.__name__

    def get(self):
        value = self.__dict__.get(name)
        if value is None:
            value = self.__dict__[name] = method(self)
        return value

    return property(get, doc=method.__doc__)


@dataclass(frozen=True)
class ChannelModel:
    """A signature matrix plus the scalars entering the received-signal law.

    Every route shares it as the factored channel: the Cholesky factor of
    its covariance is built once, on first use, and serves every solve.
    """

    S: SpreadingMatrix
    g: float
    sigma_v2: float
    sigma_w2: float
    m: float

    @classmethod
    def from_params(cls, params: SystemParams, S: SpreadingMatrix) -> "ChannelModel":
        if (S.N, S.Ns) != (params.N, params.Ns):
            raise DimensionMismatch(
                f"signature matrix is {S.N}x{S.Ns} but params declare N={params.N}, Ns={params.Ns}"
            )
        return cls(
            S=S,
            g=amplifier_gain(params),
            sigma_v2=params.sigma_v2,
            sigma_w2=params.sigma_w2,
            m=params.m,
        )

    def without(self, sensor: int) -> "ChannelModel":
        """The same channel with sensor's signature column removed (leave-one-out)."""
        entries = np.delete(self.S.entries, sensor, axis=1)
        entries.setflags(write=False)
        return replace(self, S=SpreadingMatrix(entries=entries, N=self.S.N, Ns=self.S.Ns - 1))

    @_once
    def _factor(self):
        return _cholesky(_finite(channel_covariance(self)))

    def solve(self, B) -> np.ndarray:
        """Sigma^{-1} B for a finite vector or matrix B, through the shared factor."""
        return _solve(self._factor, B)

    def whiten(self, B) -> np.ndarray:
        """L^{-1} B for a finite vector or matrix B, with L the lower Cholesky
        factor of Sigma, so that (L^{-1} a)^T (L^{-1} b) = a^T Sigma^{-1} b."""
        return solve_triangular(self._factor[0], B, lower=True, check_finite=False)

    @_once
    def s1(self) -> np.ndarray:
        """The summed signature S 1."""
        return self.S.entries.sum(axis=1)

    @_once
    def detector(self) -> np.ndarray:
        """The detector direction Sigma^{-1} S 1."""
        return self.solve(self.s1)


@dataclass(frozen=True)
class McDiagnostics:
    """Trial counts and binomial standard errors attached to simulation output."""

    trials_per_hypothesis: int
    seed: int
    false_alarms: int
    misses: int
    stderr_pf: float
    stderr_pm: float
    stderr_pe: float


@dataclass(frozen=True)
class PerformanceReport:
    """Error probabilities of one detector on one channel.

    pe = p0 pf + p1 pm, and log_pe is its natural log, finite on the
    analytic routes long after pe itself underflows to 0.  method records
    which route produced the numbers ("exact", "asymptotic" or
    "montecarlo"); tau_prime is the resolved threshold actually applied;
    mc carries simulation diagnostics and is None for analytic routes; qf
    is the channel's quadratic form, whose detection SNR g^2 qf the
    threshold was resolved against, and is None for the asymptotic route.
    """

    pf: float
    pm: float
    pe: float
    log_pe: float
    method: str
    tau_prime: float
    mc: McDiagnostics | None = None
    qf: float | None = None


def channel_covariance(model: ChannelModel) -> np.ndarray:
    """Chip covariance Sigma = g^2 sigma_v2 S S^T + sigma_w2 I.

    Returned exactly symmetric; with sigma_v2 == 0 it is exactly diagonal.
    When model.S.entries is a (k, N, Ns) stack of signature matrices, as
    in quadratic_forms, the result is the (k, N, N) stack of covariances.
    Entries that overflow come back as inf or nan without a warning; the
    factoring routes reject them with NumericalFailure.
    """
    A = model.S.entries
    with np.errstate(over="ignore", invalid="ignore"):
        cov = (model.g * model.g * model.sigma_v2) * (A @ A.mT)
        cov = 0.5 * (cov + cov.mT)
        diag = np.arange(A.shape[-2])
        cov[..., diag, diag] += model.sigma_w2
    return cov


def _finite(cov: np.ndarray) -> np.ndarray:
    if not np.isfinite(cov).all():
        raise NumericalFailure("covariance has non-finite entries")
    return cov


def _cholesky(cov: np.ndarray):
    # the caller has checked cov with _finite, so scipy's own check is skipped
    try:
        return cho_factor(cov, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalFailure(f"covariance factorization failed: {exc}") from exc


def _solve(factor, B) -> np.ndarray:
    return cho_solve(factor, B, check_finite=False)


def quadratic_form(model: ChannelModel) -> float:
    """Detector quadratic form qf = (S 1)^T Sigma^{-1} (S 1).

    Solved through the model's Cholesky factor; the covariance is positive
    definite whenever sigma_w2 > 0, so qf >= 0, with equality exactly when
    the signature columns sum to zero.
    """
    return float(model.s1 @ model.detector)


def quadratic_forms(params: SystemParams, block) -> list[float]:
    """quadratic_form of every signature matrix in a (k, N, Ns) stack.

    The k covariances come from one batched build and one finiteness check;
    each is then factored and solved on its own, so every value equals
    quadratic_form(ChannelModel.from_params(params, S)) for its matrix S.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 3 or block.shape[1:] != (params.N, params.Ns):
        raise DimensionMismatch(
            f"signature stack has shape {block.shape}, expected (k, {params.N}, {params.Ns})"
        )
    stack = SpreadingMatrix(entries=block, N=params.N, Ns=params.Ns)
    cov = _finite(channel_covariance(ChannelModel.from_params(params, stack)))
    s1 = block.sum(axis=2)
    return [float(b @ _solve(_cholesky(c), b)) for c, b in zip(cov, s1)]


def tail_report(
    params: SystemParams, x: float, tau: float, method: str, qf: float | None = None
) -> PerformanceReport:
    """Error probabilities of the threshold tau on a statistic of detection SNR x.

    pf and pm are the exponentials of core.log_tails, pe = p0 pf + p1 pm,
    and log_pe is the log of the same mix, summed in the log domain.
    """
    log_pf, log_pm = log_tails(x, params.m, tau)
    pf, pm = math.exp(log_pf), math.exp(log_pm)
    log_pe = float(np.logaddexp(math.log(params.p0) + log_pf, math.log(params.p1) + log_pm))
    return PerformanceReport(
        pf=pf, pm=pm, pe=params.p0 * pf + params.p1 * pm, log_pe=log_pe, method=method, tau_prime=tau, qf=qf
    )


def detection_snr(params: SystemParams, qf: float) -> float:
    """x = g^2 qf; NumericalFailure when the gain leaves no SNR from qf > 0."""
    g = amplifier_gain(params)
    x = g * g * qf
    if x == 0.0 and qf > 0.0:
        raise NumericalFailure(f"statistic scale 2 g m sqrt(qf) underflows to 0 (g={g!r}, qf={qf!r})")
    return x


def exact_report(params: SystemParams, qf: float, spec: DetectorSpec) -> PerformanceReport:
    """Closed-form error probabilities for a channel with quadratic form qf.

    The tails of tail_report at x = g^2 qf; with tau == 0 the two coincide
    exactly.  A vanishing gain raises NumericalFailure before the threshold
    is resolved, whatever the detector.
    """
    x = detection_snr(params, qf)
    return tail_report(params, x, threshold_for(spec, params, x), EXACT, qf=qf)


def exact_performance(params: SystemParams, S: SpreadingMatrix, spec: DetectorSpec) -> PerformanceReport:
    """Closed-form error probabilities for one signature matrix (see exact_report)."""
    return exact_report(params, quadratic_form(ChannelModel.from_params(params, S)), spec)
