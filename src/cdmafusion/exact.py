"""Exact finite-size detection analysis for a fixed signature matrix.

Conditioned on either hypothesis the received chip vector is Gaussian,
r ~ N(-+ g m S 1, Sigma) with Sigma = g^2 sigma_v2 S S^T + sigma_w2 I.
Because the covariance is hypothesis-independent, the log-likelihood ratio
is the linear statistic T(r) = 2 g m (S 1)^T Sigma^{-1} r, and both error
probabilities are Gaussian tails in the quadratic form
qf = (S 1)^T Sigma^{-1} (S 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .core import DetectorSpec, SystemParams, amplifier_gain, q_function, threshold_for
from .errors import DimensionMismatch, NumericalFailure
from .spreading import SpreadingMatrix

EXACT = "exact"
ASYMPTOTIC = "asymptotic"
MONTECARLO = "montecarlo"


@dataclass(frozen=True)
class ChannelModel:
    """A signature matrix plus the scalars entering the received-signal law."""

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

    method records which route produced the numbers ("exact", "asymptotic"
    or "montecarlo"); tau_prime is the resolved threshold actually applied;
    mc carries simulation diagnostics and is None for analytic routes.
    """

    pf: float
    pm: float
    pe: float
    method: str
    tau_prime: float
    mc: McDiagnostics | None = None


def channel_covariance(model: ChannelModel) -> np.ndarray:
    """Chip covariance Sigma = g^2 sigma_v2 S S^T + sigma_w2 I.

    Returned exactly symmetric; with sigma_v2 == 0 it is exactly diagonal.
    """
    return _covariance(model.S.entries, model.g * model.g * model.sigma_v2, model.sigma_w2)


def _covariance(A: np.ndarray, c: float, sigma_w2: float) -> np.ndarray:
    """c A A^T + sigma_w2 I for any set of signature columns A, exactly symmetric."""
    cov = c * (A @ A.T)
    cov = 0.5 * (cov + cov.T)
    cov[np.diag_indices_from(cov)] += sigma_w2
    return cov


def _cho(cov: np.ndarray):
    try:
        return cho_factor(cov, lower=True)
    except LinAlgError as exc:
        raise NumericalFailure(f"covariance factorization failed: {exc}") from exc


def quadratic_form(model: ChannelModel) -> float:
    """Detector quadratic form qf = (S 1)^T Sigma^{-1} (S 1).

    Solved through a Cholesky factorization of Sigma; the covariance is
    positive definite whenever sigma_w2 > 0, so qf >= 0, with equality
    exactly when the signature columns sum to zero.
    """
    cov = channel_covariance(model)
    s1 = model.S.entries.sum(axis=1)
    return float(s1 @ cho_solve(_cho(cov), s1))


def fusion_statistic(model: ChannelModel, r) -> float:
    """Log-likelihood ratio T(r) = 2 g m (S 1)^T Sigma^{-1} r."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (model.S.N,):
        raise DimensionMismatch(f"received vector has shape {r.shape}, expected ({model.S.N},)")
    cov = channel_covariance(model)
    s1 = model.S.entries.sum(axis=1)
    return float(2.0 * model.g * model.m * (s1 @ cho_solve(_cho(cov), r)))


def _tail_probabilities(g: float, m: float, qf: float, tau: float) -> tuple[float, float]:
    # statistic is N(-+ 2 g^2 m^2 qf, 4 g^2 m^2 qf); H1 declared when T >= tau
    if qf == 0.0:
        # signature columns cancel: T is identically zero and the tie rule decides
        return (1.0, 0.0) if tau <= 0.0 else (0.0, 1.0)
    scale = 2.0 * g * m * math.sqrt(qf)
    shift = 2.0 * g * g * m * m * qf
    pf = q_function((tau + shift) / scale)
    pm = q_function((shift - tau) / scale)
    return pf, pm


def exact_performance(params: SystemParams, S: SpreadingMatrix, spec: DetectorSpec) -> PerformanceReport:
    """Closed-form error probabilities for one signature matrix.

    pf = q((tau + 2 g^2 m^2 qf) / (2 g m sqrt(qf))) and symmetrically for
    pm; pe = p0 pf + p1 pm.  With tau == 0 the two tails coincide exactly.
    """
    model = ChannelModel.from_params(params, S)
    qf = quadratic_form(model)
    tau = threshold_for(spec, params, qf)
    pf, pm = _tail_probabilities(model.g, params.m, qf, tau)
    pe = params.p0 * pf + params.p1 * pm
    return PerformanceReport(pf=pf, pm=pm, pe=pe, method=EXACT, tau_prime=tau)
